"""Verification engine: builds the counterfactual candidate for a case,
queries the classifier oracle, derives the counterfactual judgment with a
replayable proof, and renders the fairness verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

# engine.descendants is unused but kept: benchmark/tracing.py wraps it under this name
from .closure import descendants, intervene_graph  # noqa: F401
from .kernel import Proof, ProofStep, RuleError, RuleId, apply_step, value_cut_sets
from .model import (
    AttrItem,
    Attribution,
    Case,
    CausalGraph,
    ContextItem,
    DataPoint,
    EdgeItem,
    InterventionItem,
    InvalidModel,
    Judgment,
    check_probability,
)
from .oracle import ClassifierOracle, OracleError, OracleQuery


class ConsistencyError(Exception):
    """The case's assumed factual probability disagrees with the oracle."""


class CandidateRejected(Exception):
    """A supplied counterfactual candidate could not be fully erased."""

    def __init__(self, failure: "CandidateFailure"):
        self.failure = failure
        super().__init__(str(failure))


@dataclass(frozen=True)
class Verdict:
    fair: bool
    p: Fraction
    q: Fraction
    difference: Fraction
    epsilon: Fraction
    counterfactual_judgment: Judgment
    proof: Proof


@dataclass(frozen=True)
class CandidateFailure:
    """Context items no cut rule can erase, with the violated conditions."""

    items: tuple[tuple[ContextItem, str, str], ...]  # (item, code, reason)

    def __str__(self):
        lines = [f"{code}: {reason}" for _, code, reason in self.items]
        return "candidate is not a counterfactual: " + "; ".join(lines)


def build_candidate(case: Case) -> tuple[CausalGraph, DataPoint]:
    """Intervened graph plus the reduced data point."""
    return intervene_graph(case.graph, case.intervention.var), reduced_point(case)


def reduced_point(case: Case) -> DataPoint:
    """The imposed attribution followed by every factual attribution outside
    the intervention variable's effects, in factual order."""
    a_j = case.intervention.var
    _, blocked = value_cut_sets(case.intervention_expr())
    attrs = [Attribution(a_j, case.intervention.value)]
    attrs += [a for a in case.factual if a.var not in blocked]
    return DataPoint(tuple(attrs))


def candidate_judgment(case: Case, sigma: DataPoint, prob: Fraction) -> Judgment:
    """Assemble the counterfactual-candidate judgment over the intervened
    graph: its edges and the reduced attributions, entailing the target."""
    a_j = case.intervention.var
    context: list[ContextItem] = [EdgeItem(s, d) for s, d in sorted(case.graph.edges) if d != a_j]
    context += [AttrItem(a) for a in sigma]
    return Judgment(tuple(context), case.target, case.target_value, prob)


def verify_candidate(case: Case, candidate: Judgment) -> Union[Proof, CandidateFailure]:
    """Check that a candidate really is the counterfactual of the case.

    Applies, each through the kernel's `apply_step`, weakening with the
    case's intervention expression, then erases exhaustively: the imposed
    attribution first, then edges in lexicographic order, then remaining
    attributions in stored order. Succeeds iff only the intervention
    expression remains.
    """
    if candidate.intervention_item() is not None:
        raise InvalidModel("candidate must not carry an intervention expression")
    imposed = AttrItem(Attribution(case.intervention.var, case.intervention.value))
    attrs = candidate.attr_items()
    plan: list[tuple[RuleId, ContextItem]] = [
        (RuleId.WEAKENING, InterventionItem(case.intervention_expr()))
    ]
    if imposed in attrs:
        attrs.remove(imposed)  # the intervention cut erases exactly one copy
        plan.append((RuleId.INTERVENTION_CUT, imposed))
    edges = sorted(candidate.edge_items(), key=lambda e: (e.src, e.dst))
    plan += [(RuleId.EDGE_CUT, e) for e in edges] + [(RuleId.VALUE_CUT, a) for a in attrs]
    j = candidate
    steps: list[ProofStep] = []
    failures: list[tuple[ContextItem, str, str]] = []
    for rule, item in plan:
        try:
            j = apply_step(rule, j, item)
        except RuleError as e:
            failures.append((item, e.code, str(e)))
        else:
            steps.append(ProofStep(rule, item, len(steps), j))

    if failures:
        return CandidateFailure(tuple(failures))
    return Proof((candidate,), tuple(steps))


def derive_counterfactual(case: Case, oracle: ClassifierOracle) -> tuple[Judgment, Proof]:
    """Construct (or verify, if the case overrides the candidate) the
    counterfactual judgment and its proof."""
    sigma = case.candidate_override
    if sigma is None:
        sigma = reduced_point(case)
    q = oracle.query(OracleQuery(sigma, case.target, case.target_value))
    candidate = candidate_judgment(case, sigma, q)
    result = verify_candidate(case, candidate)
    if isinstance(result, CandidateFailure):
        raise CandidateRejected(result)
    return result.conclusion(), result


def cf_verdict(
    p: Fraction,
    q: Fraction,
    epsilon: Fraction,
    cf_judgment: Judgment,
    proof: Proof,
) -> Verdict:
    """Fair iff |p - q| <= epsilon, in exact rational arithmetic."""
    p = check_probability(p)
    q = check_probability(q)
    epsilon = Fraction(epsilon)
    difference = abs(p - q)
    return Verdict(difference <= epsilon, p, q, difference, epsilon, cf_judgment, proof)


def check_case(case: Case, oracle: ClassifierOracle, epsilon: Fraction = Fraction(0)) -> Verdict:
    """Full pipeline: resolve the factual probability, derive the
    counterfactual, and compare."""
    factual_query = OracleQuery(case.factual, case.target, case.target_value)
    if case.factual_prob is None:
        p = oracle.query(factual_query)
    else:
        p = case.factual_prob
        try:
            oracle_p = oracle.query(factual_query)
        except OracleError:
            oracle_p = None
        if oracle_p is not None and oracle_p != p:
            raise ConsistencyError(
                f"case assumes factual probability {p} but the oracle answers {oracle_p}"
            )
    cf_j, proof = derive_counterfactual(case, oracle)
    return cf_verdict(p, cf_j.prob, epsilon, cf_j, proof)
