import random
from fractions import Fraction

import pytest

from cfcheck import (
    Atom,
    AttrItem,
    Attribution,
    CandidateFailure,
    CandidateRejected,
    CausalGraph,
    ConsistencyError,
    DataPoint,
    EdgeItem,
    Intervention,
    InterventionItem,
    InvalidModel,
    Judgment,
    OracleError,
    Proof,
    build_candidate,
    cf_verdict,
    check_case,
    check_proof,
    derive_counterfactual,
    verify_candidate,
    variables_of,
)
from cfcheck.engine import Case, candidate_judgment, reduced_point
from conftest import random_dag, relabelled_dag


class ConstOracle:
    def __init__(self, prob):
        self.prob = Fraction(prob)
        self.queries = []

    def query(self, q):
        self.queries.append(q)
        return self.prob


def test_case_invariants(loan_graph, loan_factual):
    with pytest.raises(InvalidModel):
        Case(loan_graph, loan_factual, Intervention("Loan", Atom("yes")), "Loan", Atom("yes"))
    with pytest.raises(InvalidModel):
        Case(loan_graph, loan_factual, Intervention("MS", Atom("div")), "GAI", Atom("65K"))


def test_build_candidate_paper_example(loan_case):
    graph_i, sigma = build_candidate(loan_case)
    assert graph_i.edges == loan_case.graph.edges - {("Gender", "MS")}
    assert [(a.var, a.value) for a in sigma] == [
        ("MS", Atom("div")),
        ("Gender", Atom("m")),
        ("SAT", Atom("1100")),
        ("Degree", Atom("PhD")),
    ]


def test_build_candidate_gender_keeps_only_sat(loan_case):
    case = Case(
        loan_case.graph,
        loan_case.factual,
        Intervention("Gender", Atom("f")),
        "Loan",
        Atom("yes"),
    )
    _, sigma = build_candidate(case)
    assert [(a.var, a.value) for a in sigma] == [
        ("Gender", Atom("f")),
        ("SAT", Atom("1100")),
    ]


def test_build_candidate_sink_intervention():
    g = CausalGraph({"A", "B", "T"}, {("A", "B")})
    case = Case(
        g,
        DataPoint((Attribution("A", Atom("x")), Attribution("B", Atom("y")))),
        Intervention("B", Atom("z")),
        "T",
        Atom("yes"),
    )
    _, sigma = build_candidate(case)
    # B is a sink: only its own value is replaced
    assert [(a.var, a.value) for a in sigma] == [("B", Atom("z")), ("A", Atom("x"))]


def test_descendant_exclusion_property(loan_case):
    from cfcheck import descendants

    _, sigma = build_candidate(loan_case)
    overlap = variables_of(sigma) & descendants(loan_case.graph, "MS")
    assert overlap == {"MS"}


def test_derive_counterfactual(loan_case):
    oracle = ConstOracle(Fraction(3, 5))
    judgment, proof = derive_counterfactual(loan_case, oracle)
    assert judgment.prob == Fraction(3, 5)
    assert len(judgment.context) == 1
    assert judgment.context[0].expr == loan_case.intervention_expr()
    assert check_proof(proof).ok
    assert proof.rule_counts() == {
        "weakening": 1,
        "intervention-cut": 1,
        "edge-cut": 9,
        "value-cut": 3,
    }
    # the single oracle query saw the reduced data point
    assert variables_of(oracle.queries[0].attributions) == {"MS", "Gender", "SAT", "Degree"}


def test_derive_zero_probability(loan_case):
    judgment, _ = derive_counterfactual(loan_case, ConstOracle(0))
    assert judgment.prob == 0


def test_derive_is_deterministic(loan_case):
    from cfcheck import dsl

    a = derive_counterfactual(loan_case, ConstOracle(Fraction(3, 5)))
    b = derive_counterfactual(loan_case, ConstOracle(Fraction(3, 5)))
    assert dsl.render_proof(a[1]) == dsl.render_proof(b[1])
    assert dsl.render_judgment(a[0]) == dsl.render_judgment(b[0])


def test_verify_candidate_paper_example(loan_case):
    _, sigma = build_candidate(loan_case)
    candidate = candidate_judgment(loan_case, sigma, Fraction(3, 5))
    proof = verify_candidate(loan_case, candidate)
    assert not isinstance(proof, CandidateFailure)
    assert check_proof(proof).ok


def test_verify_candidate_rejects_descendant_attr(loan_case):
    _, sigma = build_candidate(loan_case)
    polluted = DataPoint(sigma.attributions + (Attribution("GAI", Atom("65K")),))
    candidate = candidate_judgment(loan_case, polluted, Fraction(3, 5))
    failure = verify_candidate(loan_case, candidate)
    assert isinstance(failure, CandidateFailure)
    (item, code, reason), = failure.items
    assert item == AttrItem(Attribution("GAI", Atom("65K")))
    assert code == "descendant-of-intervention"


def test_verify_candidate_rejects_edge_into_intervention(loan_case):
    _, sigma = build_candidate(loan_case)
    candidate = candidate_judgment(loan_case, sigma, Fraction(3, 5))
    polluted = Judgment(
        candidate.context + (EdgeItem("Gender", "MS"),),
        candidate.target,
        candidate.value,
        candidate.prob,
    )
    failure = verify_candidate(loan_case, polluted)
    assert isinstance(failure, CandidateFailure)
    assert failure.items[0][1] == "edge-enters-intervention"


def test_verify_candidate_cuts_one_copy_of_the_imposed_attribution(loan_case):
    _, sigma = build_candidate(loan_case)
    candidate = candidate_judgment(loan_case, sigma, Fraction(3, 5))
    imposed = AttrItem(Attribution("MS", Atom("div")))
    doubled = Judgment(
        candidate.context + (imposed,), candidate.target, candidate.value, candidate.prob
    )
    failure = verify_candidate(loan_case, doubled)
    assert isinstance(failure, CandidateFailure)
    (item, code, _), = failure.items
    assert item == imposed and code == "attribution-not-factual"


def test_verify_candidate_refuses_a_candidate_with_an_intervention_expression(loan_case):
    candidate = Judgment(
        (InterventionItem(loan_case.intervention_expr()),),
        loan_case.target,
        loan_case.target_value,
        Fraction(3, 5),
    )
    with pytest.raises(InvalidModel, match="must not carry an intervention expression"):
        verify_candidate(loan_case, candidate)


def test_candidate_override_rejected(loan_case, loan_graph, loan_factual):
    case = Case(
        loan_graph,
        loan_factual,
        Intervention("MS", Atom("div")),
        "Loan",
        Atom("yes"),
        factual_prob=Fraction(3, 5),
        candidate_override=DataPoint(
            (Attribution("MS", Atom("div")), Attribution("GAI", Atom("65K")))
        ),
    )
    with pytest.raises(CandidateRejected) as exc:
        derive_counterfactual(case, ConstOracle(Fraction(3, 5)))
    assert any(code == "descendant-of-intervention" for _, code, _ in exc.value.failure.items)


def test_cf_verdict_examples(loan_case):
    judgment, proof = derive_counterfactual(loan_case, ConstOracle(Fraction(3, 5)))
    v = cf_verdict(Fraction(3, 5), Fraction(3, 5), Fraction(0), judgment, proof)
    assert v.fair and v.difference == 0
    v = cf_verdict(Fraction(3, 5), Fraction(1, 2), Fraction(0), judgment, proof)
    assert not v.fair and v.difference == Fraction(1, 10)
    # inclusive boundary
    v = cf_verdict(Fraction(3, 5), Fraction(11, 20), Fraction(1, 20), judgment, proof)
    assert v.fair


def test_verdict_monotonic_in_epsilon(loan_case):
    judgment, proof = derive_counterfactual(loan_case, ConstOracle(Fraction(1, 2)))
    eps_fair = Fraction(1, 10)
    assert cf_verdict(Fraction(3, 5), Fraction(1, 2), eps_fair, judgment, proof).fair
    for k in range(1, 5):
        assert cf_verdict(
            Fraction(3, 5), Fraction(1, 2), eps_fair + Fraction(k, 10), judgment, proof
        ).fair


def test_check_case_consistency_error(loan_case):
    class Disagreeing:
        def query(self, q):
            return Fraction(1, 2)

    with pytest.raises(ConsistencyError):
        check_case(loan_case, Disagreeing())


def test_check_case_uses_oracle_factual_prob(loan_graph, loan_factual):
    case = Case(
        loan_graph,
        loan_factual,
        Intervention("MS", Atom("div")),
        "Loan",
        Atom("yes"),
    )
    verdict = check_case(case, ConstOracle(Fraction(2, 5)))
    assert verdict.p == verdict.q == Fraction(2, 5) and verdict.fair


def test_check_case_propagates_oracle_error(loan_case):
    class Failing:
        def query(self, q):
            raise OracleError("no answer")

    case = Case(
        loan_case.graph,
        loan_case.factual,
        loan_case.intervention,
        loan_case.target,
        loan_case.target_value,
    )
    with pytest.raises(OracleError):
        check_case(case, Failing())


def test_verify_succeeds_on_constructed_candidates_randomized():
    rng = random.Random(99)
    trials = 0
    while trials < 200:
        g = random_dag(rng, max_nodes=10)
        nodes = sorted(g.nodes)
        if len(nodes) < 2:
            continue
        target = rng.choice(nodes)
        others = [n for n in nodes if n != target]
        a_j = rng.choice(others)
        factual_vars = [n for n in others if rng.random() < 0.7]
        factual = DataPoint(
            tuple(Attribution(v, Atom(rng.choice("xyz"))) for v in factual_vars)
        )
        case = Case(g, factual, Intervention(a_j, Atom("w")), target, Atom("yes"))
        oracle = ConstOracle(Fraction(rng.randint(0, 100), 100))
        judgment, proof = derive_counterfactual(case, oracle)
        assert check_proof(proof).ok
        assert len(judgment.context) == 1
        trials += 1


def test_verify_candidate_accepts_exactly_the_subsets_of_the_reduced_point():
    # sigma mixes the reduced point's attributions with arbitrary values of any
    # non-target variable, the intervened one included; only a subset is accepted
    rng = random.Random(2026)
    trials = accepted = 0
    while trials < 300:
        g = random_dag(rng) if trials % 2 else relabelled_dag(rng)
        nodes = sorted(g.nodes)
        if len(nodes) < 2:
            continue
        target = rng.choice(nodes)
        others = [n for n in nodes if n != target]
        factual = DataPoint(
            tuple(Attribution(v, Atom(rng.choice("xyz"))) for v in others if rng.random() < 0.7)
        )
        case = Case(g, factual, Intervention(rng.choice(others), Atom("w")), target, Atom("yes"))
        reduced = {a.var: a for a in reduced_point(case)}
        drawn = []
        for v in rng.sample(others, rng.randint(0, len(others))):
            if v in reduced and rng.random() < 0.75:
                drawn.append(reduced[v])
            else:
                drawn.append(Attribution(v, Atom(rng.choice("wxyz"))))
        sigma = DataPoint(tuple(drawn))
        result = verify_candidate(case, candidate_judgment(case, sigma, Fraction(1, 2)))
        others_drawn = [a for a in sigma if a not in reduced.values()]
        if others_drawn:
            assert isinstance(result, CandidateFailure)
            assert [item for item, _, _ in result.items] == [AttrItem(a) for a in others_drawn]
        else:
            assert isinstance(result, Proof) and check_proof(result).ok
            accepted += 1
        trials += 1
    assert 0 < accepted < trials


def test_cf_verdict_and_check_case_reject_a_float_or_out_of_range_epsilon(loan_case):
    judgment, proof = derive_counterfactual(loan_case, ConstOracle(Fraction(3, 5)))
    p = Fraction(3, 5)
    for epsilon in (0.1, Fraction(-1, 10), Fraction(11, 10)):
        with pytest.raises(InvalidModel):
            cf_verdict(p, p + Fraction(1, 10), epsilon, judgment, proof)
        with pytest.raises(InvalidModel):
            check_case(loan_case, ConstOracle(p), epsilon)
    verdict = cf_verdict(p, p + Fraction(1, 10), 1, judgment, proof)  # an exact int is fine
    assert verdict.fair and verdict.epsilon == 1
