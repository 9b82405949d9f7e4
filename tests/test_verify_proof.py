"""`verify_proof`, the one check that a proof certifies a case. Each forged
proof below replays under `check_proof`; only the case checks reject it."""

import dataclasses
import json
from fractions import Fraction

import pytest

import cfcheck
from cfcheck import (
    Atom,
    AttrItem,
    Attribution,
    Intervention,
    InterventionExpr,
    InterventionItem,
    JudgmentDbOracle,
    Proof,
    ProofCheck,
    ProofStep,
    RuleId,
    check_proof,
    derive_counterfactual,
    verify_candidate,
    verify_proof,
)
from cfcheck import dsl, kernel
from cfcheck.engine import candidate_judgment, reduced_point
from conftest import DATA

LOAN = (DATA / "loan.cfc").read_text()
LOAN_DB = (DATA / "loan.db").read_text()
NOT_CONCLUDED = "proof does not conclude with this case's counterfactual"
NOT_STARTED = "proof does not start from this case's candidate"


def _derive(case_text: str = LOAN, db_text: str = LOAN_DB, case=None) -> Proof:
    oracle = JudgmentDbOracle(dsl.parse_judgment_db(db_text))
    return derive_counterfactual(case or dsl.parse_case(case_text), oracle)[1]


def _reparsed(proof: Proof) -> Proof:
    return dsl.parse_proof(dsl.render_proof(proof))


def test_verify_proof_accepts_a_derived_proof_and_reports_its_conclusion():
    assert cfcheck.verify_proof is verify_proof
    proof = _reparsed(_derive())
    result = verify_proof(dsl.parse_case(LOAN), proof)
    assert result == ProofCheck(True) and result.conclusion == proof.conclusion()


def _retargeted(doc: dict) -> dict:
    text = json.dumps(doc)
    assert text.count("|- Loan = yes") == 2
    return json.loads(text.replace("|- Loan = yes", "|- Loan = no"))


def _unanchored(doc: dict) -> dict:
    """What the value cuts erase dropped from the assumption, with their
    steps, and both ends moved to another probability."""
    assumption = doc["assumptions"][0]
    for attr in ("Gender = m", "SAT = 1100", "Degree = PhD"):
        assumption = assumption.replace(f", {attr}", "")
    steps = doc["steps"][:11]
    assert [s["rule"] for s in doc["steps"][11:]] == ["value-cut"] * 3
    steps[-1]["conclusion"] = doc["steps"][-1]["conclusion"].replace("@ 0.6", "@ 0.99")
    return {"assumptions": [assumption.replace("@ 0.6", "@ 0.99")], "steps": steps}


@pytest.mark.parametrize(
    "forge, case_text, code, reason",
    [
        (_retargeted, LOAN, "conclusion-not-counterfactual", NOT_CONCLUDED),
        (
            lambda doc: doc,
            LOAN.replace("intervene MS = div;", "intervene MS = sin;"),
            "conclusion-not-counterfactual",
            NOT_CONCLUDED,
        ),
        (_unanchored, LOAN, "assumption-not-candidate", NOT_STARTED),
    ],
    ids=["other-value", "other-intervention", "unanchored"],
)
def test_verify_proof_codes_a_replaying_proof_of_another_case(forge, case_text, code, reason):
    proof = dsl.proof_from_dict(forge(dsl.proof_to_dict(_derive())))
    assert check_proof(proof) == ProofCheck(True)
    result = verify_proof(dsl.parse_case(case_text), proof)
    assert result == ProofCheck(False, None, code, reason)
    assert result.conclusion == proof.conclusion()  # what the proof does certify


def test_verify_proof_takes_the_blocked_set_from_the_concluding_branch_only():
    # The assumptions are the candidate that the blocked set of `other`, an
    # intervention on Gender, would give: MS = div, SAT = 1100. The first
    # branch weakens with `other` and value-cuts under it; the second derives
    # the case's counterfactual. A check that took the blocked set from the
    # first weakening would accept this proof.
    case = dsl.parse_case(LOAN)
    other = InterventionExpr(case.graph, case.factual, Intervention("Gender", Atom("f")))
    decoy = candidate_judgment(case, reduced_point(case, other), Fraction(3, 5))
    assert len(decoy.attr_items()) == 2
    honest = verify_candidate(case, decoy)
    decoy_branch = (
        ProofStep(RuleId.WEAKENING, InterventionItem(other), 0, None),
        ProofStep(RuleId.VALUE_CUT, AttrItem(Attribution("SAT", Atom("1100"))), 2, None),
    )
    # the honest branch starts from assumption 1 and follows the decoy's two steps
    shifted = tuple(
        dataclasses.replace(s, premise=1 if k == 0 else 3 + k) for k, s in enumerate(honest.steps)
    )
    proof = _reparsed(Proof((decoy, decoy), decoy_branch + shifted))  # records the last conclusion
    assert check_proof(proof) == ProofCheck(True)
    result = verify_proof(dsl.parse_case(LOAN), proof)
    assert (result.code, result.reason) == ("assumption-not-candidate", NOT_STARTED)


def test_verify_proof_starts_from_the_case_s_candidate_block():
    block_case = LOAN.replace(
        "factual_prob 0.60;", "candidate { MS = div; SAT = 1100; }\nfactual_prob 0.60;"
    )
    proof = _reparsed(_derive(block_case, "MS = div, SAT = 1100 |- Loan = yes @ 0.5;"))
    assert verify_proof(dsl.parse_case(block_case), proof) == ProofCheck(True)
    assert verify_proof(dsl.parse_case(LOAN), proof).code == "assumption-not-candidate"


def test_verify_proof_computes_the_blocked_set_once(monkeypatch):
    blocked_sets = []
    descendants = kernel.descendants
    monkeypatch.setattr(
        kernel, "descendants", lambda g, a: blocked_sets.append(a) or descendants(g, a)
    )
    case = dsl.parse_case(LOAN)
    proof = _derive(case=case)
    assert blocked_sets == ["MS"]
    # a parsed proof against a freshly parsed case: the replay's value cuts
    # compute the blocked set, and the reduced point reuses it
    blocked_sets.clear()
    assert verify_proof(dsl.parse_case(LOAN), _reparsed(proof)).ok
    assert blocked_sets == ["MS"]
    # the proof derived from this very case object finds it computed already
    blocked_sets.clear()
    assert verify_proof(case, proof).ok
    assert blocked_sets == []
