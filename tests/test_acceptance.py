"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report. All comparisons are exact rational arithmetic; there are no float
tolerances anywhere.
"""

import dataclasses
import json
import random
import time
from fractions import Fraction

import pytest

from cfcheck import (
    Atom,
    AttrItem,
    Attribution,
    Complement,
    CsvFrequencyOracle,
    EdgeItem,
    InterventionItem,
    Judgment,
    Proof,
    RuleId,
    Sum,
    UndefinedProbability,
    apply_i_cut,
    build_candidate,
    check_proof,
    mediate_closure,
)
from cfcheck.cli import main
from cfcheck.dsl import parse_judgment, render_judgment, ParseError
from cfcheck.oracle import OracleQuery, DataPoint

from conftest import brute_force_closure, random_dag, replayed_conclusions
from spec import generic_cut, intervention_axiom, value_matches
from test_kernel import judgments_with_intervention
from test_dsl import random_judgment


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_1_paper_example_end_to_end(capsys, data_dir, tmp_path):
    proof_path = tmp_path / "loan.proof.json"
    start = time.monotonic()
    code, out, _ = run_cli(
        capsys,
        "check",
        str(data_dir / "loan.cfc"),
        "--oracle",
        f"db:{data_dir / 'loan.db'}",
        "--epsilon",
        "0",
        "--format",
        "json",
    )
    elapsed = time.monotonic() - start
    assert code == 0
    doc = json.loads(out)
    assert doc["fair"] is True
    assert Fraction(doc["p"]) == Fraction(3, 5) == Fraction(doc["q"])
    assert Fraction(doc["difference"]) == 0
    assert doc["rule_counts"] == {
        "weakening": 1,
        "intervention-cut": 1,
        "edge-cut": 9,
        "value-cut": 3,
    }
    # the emitted proof replays
    code, _, _ = run_cli(
        capsys,
        "derive",
        str(data_dir / "loan.cfc"),
        "--oracle",
        f"db:{data_dir / 'loan.db'}",
        "--emit-proof",
        str(proof_path),
    )
    assert code == 0
    code, _, _ = run_cli(capsys, "verify-proof", str(proof_path), str(data_dir / "loan.cfc"))
    assert code == 0
    assert elapsed < 1.0
    report(1, f"FAIR p=q=3/5 exactly, 14-step proof replays, {elapsed:.3f}s")


def test_criterion_2_negative_case(capsys, data_dir):
    code, out, _ = run_cli(
        capsys,
        "check",
        str(data_dir / "loan.cfc"),
        "--oracle",
        f"db:{data_dir / 'loan_unfair.db'}",
    )
    assert code == 1 and "UNFAIR" in out and "|p-q|=0.1" in out
    code, out, _ = run_cli(
        capsys,
        "check",
        str(data_dir / "loan.cfc"),
        "--oracle",
        f"db:{data_dir / 'loan_unfair.db'}",
        "--epsilon",
        "0.10",
    )
    assert code == 0 and "FAIR" in out
    report(2, "UNFAIR with difference exactly 1/10; FAIR at inclusive epsilon 0.10")


def test_criterion_3_closure_oracle_equivalence():
    rng = random.Random(20250823)
    mismatches = 0
    for _ in range(200):
        g = random_dag(rng, max_nodes=10, density=0.5)
        witnesses = {(a, b): m for a, b, m in mediate_closure(g).entries}
        expected = brute_force_closure(g)
        if set(witnesses) != set(expected):
            mismatches += 1
            continue
        if any(witnesses[a, b] != m for (a, b), m in expected.items()):
            mismatches += 1
    assert mismatches == 0
    report(3, "200 random DAGs, pairs and witness sets all match brute force")


def test_criterion_4_descendant_criterion(capsys, data_dir, loan_case):
    code, out, _ = run_cli(capsys, "closure", str(data_dir / "loan.cfc"), "--of", "MS")
    assert code == 0
    assert set(out.strip().split(", ")) == {"MS", "Experience", "GAI", "Loan"}
    _, sigma = build_candidate(loan_case)
    assert set((a.var, a.value) for a in sigma) == {
        ("MS", Atom("div")),
        ("Gender", Atom("m")),
        ("SAT", Atom("1100")),
        ("Degree", Atom("PhD")),
    }
    report(4, "descendants(MS) and the reduced data point match the worked example")


def test_criterion_5_cut_contraction():
    from hypothesis import given, settings

    counterexamples = []

    @settings(max_examples=120, deadline=None)
    @given(judgments_with_intervention())
    def run(j):
        item = j.intervention_item()
        bare = Judgment(
            tuple(i for i in j.context if not isinstance(i, InterventionItem)),
            j.target,
            j.value,
            j.prob,
        )
        if generic_cut(intervention_axiom(item.expr), bare) != apply_i_cut(j):
            counterexamples.append(j)

    run()
    assert not counterexamples
    report(5, "120 generated judgments, generic cut always equals the contracted rule")


def _loan_proof(data_dir):
    from cfcheck.dsl import parse_case
    from cfcheck.engine import derive_counterfactual
    from cfcheck.oracle import JudgmentDbOracle
    from cfcheck.dsl import parse_judgment_db

    case = parse_case((data_dir / "loan.cfc").read_text())
    oracle = JudgmentDbOracle(parse_judgment_db((data_dir / "loan.db").read_text()))
    _, proof = derive_counterfactual(case, oracle)
    return proof


def test_criterion_6_proof_mutation_rejection(data_dir):
    proof = _loan_proof(data_dir)
    assert check_proof(proof).ok

    def mutate(index, **changes):
        steps = list(proof.steps)
        steps[index] = dataclasses.replace(steps[index], **changes)
        return Proof(proof.assumptions, tuple(steps))

    mutations = []  # (mutated proof, step index, expected code)
    for i, step in enumerate(proof.steps):
        if step.rule is RuleId.EDGE_CUT:
            mutations.append(
                (mutate(i, item=EdgeItem("Gender", "MS")), i, "edge-enters-intervention")
            )
        if step.rule is RuleId.VALUE_CUT:
            mutations.append(
                (
                    mutate(i, item=AttrItem(Attribution("GAI", Atom("65K")))),
                    i,
                    "descendant-of-intervention",
                )
            )
    conclusions = replayed_conclusions(proof)
    for i in (3, 6, 9, 12, 13):
        old = conclusions[i]
        forged = Judgment(old.context, old.target, old.value, Fraction(9, 10))
        mutations.append((mutate(i, conclusion=forged), i, "conclusion-mismatch"))
    for i in (2, 5, 8):
        mutations.append((mutate(i, premise=len(proof.steps)), i, "premise-order"))

    assert len(mutations) >= 20
    for mutated, step_index, expected_code in mutations:
        result = check_proof(mutated)
        assert not result.ok
        assert result.step == step_index
        assert result.code == expected_code
    report(6, f"{len(mutations)} single-step mutations all rejected with the right label")


def test_criterion_7_csv_oracle_exactness(data_dir):
    oracle = CsvFrequencyOracle.from_text((data_dir / "loans.csv").read_text(encoding="utf-8"))

    def q(attrs, target="Loan", value=Atom("yes")):
        return OracleQuery(
            DataPoint(tuple(Attribution(v, t) for v, t in attrs)), target, value
        )

    # hand-counted over the 20-row fixture
    assert oracle.query(q([("Gender", Atom("m"))])) == Fraction(1, 2)
    assert oracle.query(
        q([("MS", Sum((Atom("married"), Atom("divorced"))))])
    ) == Fraction(5, 12)
    assert oracle.query(q([("Etn", Complement(Atom("white")))])) == Fraction(3, 8)
    assert oracle.query(
        q([("Gender", Atom("f")), ("MS", Complement(Atom("single")))])
    ) == Fraction(1, 5)
    assert oracle.query(q([])) == Fraction(9, 20)

    # randomized tables vs an independent row scan
    rng = random.Random(777)
    for _ in range(50):
        cols = [f"c{i}" for i in range(rng.randint(2, 5))]
        rows = [
            {c: rng.choice("abc") for c in cols} for _ in range(rng.randint(1, 50))
        ]
        text = ",".join(cols) + "\n" + "\n".join(
            ",".join(r[c] for c in cols) for r in rows
        )
        table = CsvFrequencyOracle.from_text(text)
        term = rng.choice(
            [Atom("a"), Sum((Atom("a"), Atom("b"))), Complement(Atom("c"))]
        )
        attrs = [(cols[0], term)]
        tv = Atom(rng.choice("abc"))
        den = [r for r in rows if value_matches(term, r[cols[0]])]
        num = [r for r in den if value_matches(tv, r[cols[-1]])]
        query = q(attrs, target=cols[-1], value=tv)
        if not den:
            with pytest.raises(UndefinedProbability):
                table.query(query)
        else:
            assert table.query(query) == Fraction(len(num), len(den))
    report(7, "fixture rationals exact; 50 random tables match the brute-force scan")


def test_criterion_8_dsl_round_trip():
    rng = random.Random(424242)
    for _ in range(500):
        j = random_judgment(rng)
        text = render_judgment(j)
        assert parse_judgment(text) == j
        assert render_judgment(parse_judgment(text)) == text
    bad_inputs = [
        "A -> |- T = y @ 0.5",
        "|- T = y @ 1.0000001",
        "[A -> B I(A=x) |- T = y @ 0.5",
        "A = x x |- T = y @ 0.5",
        "graph { A -> B; B -> A; }",
    ]
    spans_checked = 0
    for text in bad_inputs:
        with pytest.raises(ParseError) as exc:
            if text.startswith("graph"):
                from cfcheck.dsl import parse_case_or_graph

                parse_case_or_graph(text)
            else:
                parse_judgment(text)
        span = exc.value.span
        lines = text.split("\n")
        assert 1 <= span.line <= len(lines)
        assert 1 <= span.column <= len(lines[span.line - 1]) + 2
        spans_checked += 1
    report(8, f"500 judgments round-trip; {spans_checked} parse errors carry in-bounds spans")
