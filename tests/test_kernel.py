import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfcheck import (
    Atom,
    AttrItem,
    Attribution,
    CausalGraph,
    DataPoint,
    EdgeItem,
    Intervention,
    InterventionExpr,
    InterventionItem,
    Judgment,
    Proof,
    ProofStep,
    RuleError,
    RuleId,
    apply_c_weakening,
    apply_i_cut,
    apply_tri_cut,
    apply_v_cut,
    check_proof,
    derive_counterfactual,
)
from cfcheck.kernel import apply_step
from spec import generic_cut, intervention_axiom


class ConstOracle:
    def __init__(self, prob):
        self.prob = Fraction(prob)

    def query(self, q):
        return self.prob


@pytest.fixture
def loan_expr(loan_graph, loan_factual):
    return InterventionExpr(loan_graph, loan_factual, Intervention("MS", Atom("div")))


@pytest.fixture
def candidate(loan_graph, loan_factual):
    # the reduced counterfactual data point over the intervened graph
    edges = sorted(loan_graph.edges - {("Gender", "MS")})
    context = tuple(EdgeItem(s, d) for s, d in edges) + tuple(
        AttrItem(Attribution(v, Atom(x)))
        for v, x in [("MS", "div"), ("Gender", "m"), ("SAT", "1100"), ("Degree", "PhD")]
    )
    return Judgment(context, "Loan", Atom("yes"), Fraction(3, 5))


@pytest.fixture
def weakened(candidate, loan_expr):
    return apply_c_weakening(candidate, loan_expr)


@pytest.fixture
def loan_proof(loan_case):
    _, proof = derive_counterfactual(loan_case, ConstOracle(Fraction(3, 5)))
    return proof


def test_c_weakening(candidate, loan_expr, weakened):
    assert InterventionItem(loan_expr) in weakened.context
    assert (weakened.target, weakened.value, weakened.prob) == (
        candidate.target,
        candidate.value,
        candidate.prob,
    )
    assert len(weakened.context) == len(candidate.context) + 1
    with pytest.raises(RuleError, match="already carries"):
        apply_c_weakening(weakened, loan_expr)


def test_c_weakening_empty_context(loan_expr):
    j = Judgment((), "T", Atom("b"), Fraction(1))
    out = apply_c_weakening(j, loan_expr)
    assert out.context == (InterventionItem(loan_expr),)


def test_i_cut(weakened):
    out = apply_i_cut(weakened)
    assert AttrItem(Attribution("MS", Atom("div"))) not in out.context
    assert out.prob == Fraction(3, 5)
    assert len(out.context) == len(weakened.context) - 1


def test_i_cut_value_mismatch(loan_expr):
    j = Judgment(
        (InterventionItem(loan_expr), AttrItem(Attribution("MS", Atom("mar")))),
        "Loan",
        Atom("yes"),
        Fraction(3, 5),
    )
    with pytest.raises(RuleError) as exc:
        apply_i_cut(j)
    assert exc.value.code == "imposed-attribution-missing"


def test_i_cut_requires_intervention(candidate):
    with pytest.raises(RuleError) as exc:
        apply_i_cut(candidate)
    assert exc.value.code == "no-intervention"


def test_tri_cut(weakened):
    out = apply_tri_cut(weakened, ("Degree", "GAI"))
    assert EdgeItem("Degree", "GAI") not in out.context
    assert out.prob == weakened.prob


def test_tri_cut_edge_into_intervention(weakened):
    with pytest.raises(RuleError) as exc:
        apply_tri_cut(weakened, ("Gender", "MS"))
    assert exc.value.code == "edge-enters-intervention"


def test_tri_cut_strict_vs_lenient(candidate, loan_graph, loan_factual):
    # candidate carrying an edge that is not in the factual graph
    spurious = EdgeItem("SAT", "Loan")
    j = Judgment(
        candidate.context + (spurious,), "Loan", Atom("yes"), Fraction(3, 5)
    )
    expr = InterventionExpr(loan_graph, loan_factual, Intervention("MS", Atom("div")))
    j = apply_c_weakening(j, expr)
    with pytest.raises(RuleError) as exc:
        apply_tri_cut(j, ("SAT", "Loan"))
    assert exc.value.code == "edge-not-in-factual-graph"


def test_tri_cut_edge_absent(weakened):
    once = apply_tri_cut(weakened, ("Degree", "GAI"))
    with pytest.raises(RuleError) as exc:
        apply_tri_cut(once, ("Degree", "GAI"))
    assert exc.value.code == "edge-not-in-context"


def test_v_cut(weakened):
    out = apply_v_cut(weakened, Attribution("SAT", Atom("1100")))
    assert AttrItem(Attribution("SAT", Atom("1100"))) not in out.context
    assert out.prob == weakened.prob


def test_v_cut_descendant_rejected(weakened, loan_expr):
    j = Judgment(
        weakened.context + (AttrItem(Attribution("GAI", Atom("65K"))),),
        "Loan",
        Atom("yes"),
        Fraction(3, 5),
    )
    with pytest.raises(RuleError) as exc:
        apply_v_cut(j, Attribution("GAI", Atom("65K")))
    assert exc.value.code == "descendant-of-intervention"


def test_v_cut_reflexive_rejected(weakened):
    # MS is its own (reflexive) effect; erasing its attribution is I-Cut's job
    j = Judgment(
        weakened.context + (AttrItem(Attribution("MS", Atom("mar"))),),
        "Loan",
        Atom("yes"),
        Fraction(3, 5),
    )
    with pytest.raises(RuleError) as exc:
        apply_v_cut(j, Attribution("MS", Atom("mar")))
    assert exc.value.code == "descendant-of-intervention"


def test_v_cut_not_factual(weakened):
    j = Judgment(
        weakened.context + (AttrItem(Attribution("SAT", Atom("900"))),),
        "Loan",
        Atom("yes"),
        Fraction(3, 5),
    )
    with pytest.raises(RuleError) as exc:
        apply_v_cut(j, Attribution("SAT", Atom("900")))
    assert exc.value.code == "attribution-not-factual"


def test_intervention_axiom(loan_expr):
    j = intervention_axiom(loan_expr)
    assert j.context == (InterventionItem(loan_expr),)
    assert (j.target, j.value, j.prob) == ("MS", Atom("div"), Fraction(1))


def test_generic_cut(loan_expr, weakened):
    axiom = intervention_axiom(loan_expr)
    bare = Judgment(
        tuple(i for i in weakened.context if not isinstance(i, InterventionItem)),
        weakened.target,
        weakened.value,
        weakened.prob,
    )
    cut = generic_cut(axiom, bare)
    assert cut == apply_i_cut(weakened)


def test_generic_cut_errors(loan_expr, candidate):
    uncertain = Judgment((), "MS", Atom("div"), Fraction(9, 10))
    with pytest.raises(RuleError) as exc:
        generic_cut(uncertain, candidate)
    assert exc.value.code == "cut-premise-not-certain"
    certain = Judgment((), "Nope", Atom("x"), Fraction(1))
    with pytest.raises(RuleError) as exc:
        generic_cut(certain, candidate)
    assert exc.value.code == "cut-attribution-missing"


def test_cut_commutativity(weakened):
    a = apply_v_cut(apply_tri_cut(weakened, ("Degree", "GAI")), Attribution("SAT", Atom("1100")))
    b = apply_tri_cut(apply_v_cut(weakened, Attribution("SAT", Atom("1100"))), ("Degree", "GAI"))
    assert a == b


_SAT = Attribution("SAT", Atom("1100"))
_MS_MAR = Attribution("MS", Atom("mar"))


@pytest.mark.parametrize(
    "apply, code, reason",
    [
        (lambda c, w, e: apply_i_cut(c), "no-intervention",
         "context carries no intervention expression"),
        (lambda c, w, e: apply_c_weakening(w, e), "intervention-present",
         "context already carries an intervention expression"),
        (lambda c, w, e: apply_i_cut(Judgment((InterventionItem(e), AttrItem(_MS_MAR)), "Loan",
                                              Atom("yes"), Fraction(3, 5))),
         "imposed-attribution-missing",
         "no loose attribution MS=div in context (found MS with value mar)"),
        (lambda c, w, e: apply_tri_cut(w, ("Gender", "MS")), "edge-enters-intervention",
         "edge Gender -> MS enters the intervention variable"),
        (lambda c, w, e: apply_tri_cut(w, ("SAT", "Loan")), "edge-not-in-factual-graph",
         "edge SAT -> Loan is not in the factual graph"),
        (lambda c, w, e: apply_tri_cut(apply_tri_cut(w, ("Degree", "GAI")), ("Degree", "GAI")),
         "edge-not-in-context", "edge Degree -> GAI not in context"),
        (lambda c, w, e: apply_v_cut(w, Attribution("SAT", Atom("900"))),
         "attribution-not-factual", "SAT with this value is not in the factual data point"),
        (lambda c, w, e: apply_v_cut(w, Attribution("GAI", Atom("65K"))),
         "descendant-of-intervention", "GAI is an effect of MS in the factual graph"),
        (lambda c, w, e: apply_v_cut(apply_v_cut(w, _SAT), _SAT),
         "attribution-not-in-context", "SAT not loose in context"),
        (lambda c, w, e: apply_step(RuleId.WEAKENING, c, EdgeItem("Gender", "MS")), "bad-item",
         "weakening needs an intervention item"),
        (lambda c, w, e: apply_step(RuleId.INTERVENTION_CUT, w, AttrItem(_SAT)), "bad-item",
         "intervention cut needs the imposed attribution as item"),
        (lambda c, w, e: apply_step(RuleId.EDGE_CUT, w, AttrItem(_SAT)), "bad-item",
         "edge cut needs an edge item"),
        (lambda c, w, e: apply_step(RuleId.VALUE_CUT, w, EdgeItem("Degree", "GAI")), "bad-item",
         "value cut needs an attribution item"),
    ],
    ids=[
        "no-intervention", "intervention-present", "imposed-attribution-missing",
        "edge-enters-intervention", "edge-not-in-factual-graph", "edge-not-in-context",
        "attribution-not-factual", "descendant-of-intervention", "attribution-not-in-context",
        "bad-item-weakening", "bad-item-intervention-cut", "bad-item-edge-cut",
        "bad-item-value-cut",
    ],
)
def test_each_rule_error_states_its_reason(candidate, weakened, loan_expr, apply, code, reason):
    with pytest.raises(RuleError) as exc:
        apply(candidate, weakened, loan_expr)
    assert (exc.value.code, str(exc.value)) == (code, reason)


def test_a_proof_without_steps_concludes_its_last_assumption(candidate):
    assert Proof((candidate,), ()).conclusion() is candidate


# ---------------------------------------------------------------------------
# Contraction equivalence, randomized.

_VARS = ["A", "B", "C", "D"]


@st.composite
def judgments_with_intervention(draw):
    edges = {
        (_VARS[i], _VARS[j])
        for i in range(len(_VARS))
        for j in range(i + 1, len(_VARS))
        if draw(st.booleans())
    }
    graph = CausalGraph(frozenset(_VARS), frozenset(edges))
    factual = DataPoint(
        tuple(
            Attribution(v, Atom(draw(st.sampled_from("xyz"))))
            for v in _VARS
            if draw(st.booleans())
        )
    )
    a_j = draw(st.sampled_from(_VARS))
    expr = InterventionExpr(graph, factual, Intervention(a_j, Atom(draw(st.sampled_from("xyz")))))
    context = [InterventionItem(expr), AttrItem(Attribution(a_j, expr.intervention.value))]
    for src, dst in sorted(edges):
        if draw(st.booleans()):
            context.append(EdgeItem(src, dst))
    for attr in factual:
        if draw(st.booleans()):
            context.append(AttrItem(attr))
    prob = Fraction(draw(st.integers(0, 10)), 10)
    return Judgment(tuple(context), "T", Atom("yes"), prob)


@settings(max_examples=150)
@given(judgments_with_intervention())
def test_contraction_equivalence(j):
    item = j.intervention_item()
    bare = Judgment(
        tuple(i for i in j.context if not isinstance(i, InterventionItem)),
        j.target,
        j.value,
        j.prob,
    )
    assert generic_cut(intervention_axiom(item.expr), bare) == apply_i_cut(j)


@settings(max_examples=100)
@given(judgments_with_intervention())
def test_rules_shrink_context_by_one(j):
    out = apply_i_cut(j)
    assert len(out.context) == len(j.context) - 1
    assert (out.target, out.value, out.prob) == (j.target, j.value, j.prob)


# ---------------------------------------------------------------------------
# Proof replay.


def test_check_proof_accepts_engine_proof(loan_proof):
    assert check_proof(loan_proof).ok
    assert loan_proof.rule_counts() == {
        "weakening": 1,
        "intervention-cut": 1,
        "edge-cut": 9,
        "value-cut": 3,
    }


def _mutate_step(proof, index, **changes):
    steps = list(proof.steps)
    steps[index] = dataclasses.replace(steps[index], **changes)
    return Proof(proof.assumptions, tuple(steps))


def _step_indices(proof, rule):
    return [i for i, s in enumerate(proof.steps) if s.rule is rule]


def test_check_proof_rejects_retargeted_edge(loan_proof):
    idx = _step_indices(loan_proof, RuleId.EDGE_CUT)[0]
    mutated = _mutate_step(loan_proof, idx, item=EdgeItem("Gender", "MS"))
    result = check_proof(mutated)
    assert not result.ok and result.step == idx
    assert result.code == "edge-enters-intervention"


def test_check_proof_rejects_descendant_v_cut(loan_proof):
    idx = _step_indices(loan_proof, RuleId.VALUE_CUT)[0]
    mutated = _mutate_step(
        loan_proof, idx, item=AttrItem(Attribution("GAI", Atom("65K")))
    )
    result = check_proof(mutated)
    assert not result.ok and result.step == idx
    assert result.code == "descendant-of-intervention"


def test_check_proof_rejects_probability_edit(loan_proof):
    idx = len(loan_proof.steps) - 1
    old = loan_proof.steps[idx].conclusion
    forged = Judgment(old.context, old.target, old.value, Fraction(1, 2))
    result = check_proof(_mutate_step(loan_proof, idx, conclusion=forged))
    assert not result.ok and result.step == idx and result.code == "conclusion-mismatch"


def test_check_proof_rejects_forward_premise(loan_proof):
    idx = 2
    result = check_proof(_mutate_step(loan_proof, idx, premise=len(loan_proof.steps)))
    assert not result.ok and result.step == idx and result.code == "premise-order"


def test_check_proof_rejects_out_of_range_premise(loan_proof):
    result = check_proof(_mutate_step(loan_proof, 1, premise=99))
    assert not result.ok and result.code == "premise-out-of-range"


def _first(proof, rule):
    return _step_indices(proof, rule)[0]


@pytest.mark.parametrize(
    "edit, code",
    [
        pytest.param(lambda p: (1, {"premise": None}), "premise-missing", id="premise-missing"),
        pytest.param(
            lambda p: (0, {"item": EdgeItem("Gender", "MS")}),
            "bad-item",
            id="bad-item-weakening",
        ),
        pytest.param(
            lambda p: (
                _first(p, RuleId.INTERVENTION_CUT),
                {"item": AttrItem(Attribution("MS", Atom("mar")))},
            ),
            "bad-item",
            id="bad-item-intervention-cut",
        ),
        pytest.param(
            lambda p: (_first(p, RuleId.INTERVENTION_CUT), {"item": None}),
            "bad-item",
            id="null-item-intervention-cut",
        ),
        pytest.param(
            lambda p: (
                _first(p, RuleId.EDGE_CUT),
                {"item": AttrItem(Attribution("SAT", Atom("1100")))},
            ),
            "bad-item",
            id="bad-item-edge-cut",
        ),
        pytest.param(
            lambda p: (_first(p, RuleId.VALUE_CUT), {"item": EdgeItem("Degree", "GAI")}),
            "bad-item",
            id="bad-item-value-cut",
        ),
        pytest.param(
            lambda p: (
                _first(p, RuleId.EDGE_CUT),
                {"rule": RuleId.WEAKENING, "item": p.steps[0].item},
            ),
            "intervention-present",
            id="intervention-present",
        ),
        pytest.param(
            # erase again the attribution the previous value cut erased
            lambda p: (
                _step_indices(p, RuleId.VALUE_CUT)[1],
                {"item": p.steps[_first(p, RuleId.VALUE_CUT)].item},
            ),
            "attribution-not-in-context",
            id="attribution-not-in-context",
        ),
    ],
)
def test_check_proof_failure_branches(loan_proof, edit, code):
    index, changes = edit(loan_proof)
    result = check_proof(_mutate_step(loan_proof, index, **changes))
    assert not result.ok and result.step == index and result.code == code


@pytest.mark.parametrize("prob", [Fraction(3, 5), Fraction(1, 100)])
def test_check_proof_rejects_intervention_in_assumption(loan_proof, prob):
    # the counterfactual judgment assumed outright, with no weakening step
    final = loan_proof.conclusion()
    assumed = Judgment(final.context, final.target, final.value, prob)
    result = check_proof(Proof((assumed,), ()))
    assert not result.ok and result.step is None
    assert result.code == "intervention-in-assumption"


def test_generic_cut_rejects_two_intervention_expressions(loan_expr, weakened):
    # the right premise holds MS = div, so only the second expression is at fault
    with pytest.raises(RuleError) as exc:
        generic_cut(intervention_axiom(loan_expr), weakened)
    assert exc.value.code == "two-interventions"
