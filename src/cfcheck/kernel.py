"""The proof kernel: the four structural rules and an independent replay
checker for proof objects.

Every rule is a pure function from judgments to judgments; a Proof is an
append-only record of rule applications that the checker can re-execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .closure import descendants
from .model import (
    AttrItem,
    Attribution,
    ContextItem,
    EdgeItem,
    InterventionExpr,
    InterventionItem,
    Judgment,
    render_valueterm,
)


class RuleId(Enum):
    WEAKENING = "weakening"
    INTERVENTION_CUT = "intervention-cut"
    EDGE_CUT = "edge-cut"
    VALUE_CUT = "value-cut"


class RuleError(Exception):
    """A rule precondition or side condition failed.

    `code` is a stable machine-readable label for the violated condition.
    """

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


def _require_intervention(j: Judgment) -> InterventionItem:
    item = j.intervention_item()
    if item is None:
        raise RuleError("no-intervention", "context carries no intervention expression")
    return item


def apply_c_weakening(j: Judgment, e: InterventionExpr) -> Judgment:
    """Add an intervention expression to a context that has none."""
    if j.intervention_item() is not None:
        raise RuleError(
            "intervention-present", "context already carries an intervention expression"
        )
    return Judgment((InterventionItem(e),) + j.context, j.target, j.value, j.prob)


def apply_i_cut(j: Judgment) -> Judgment:
    """Erase the loose attribution imposed by the intervention."""
    item = _require_intervention(j)
    iv = item.expr.intervention
    try:
        return j.erase(AttrItem(Attribution(iv.var, iv.value)))
    except ValueError:
        others = [
            a.attribution.value
            for a in j.attr_items()
            if a.attribution.var == iv.var
        ]
        detail = f" (found {iv.var} with value {render_valueterm(others[0])})" if others else ""
        raise RuleError(
            "imposed-attribution-missing",
            f"no loose attribution {iv.var}={iv.value.token} in context{detail}",
        )


def apply_tri_cut(j: Judgment, edge: tuple[str, str]) -> Judgment:
    """Erase one causal edge of the bracketed factual graph that does not
    enter the intervention variable."""
    item = _require_intervention(j)
    src, dst = edge
    if dst == item.expr.intervention.var:
        raise RuleError(
            "edge-enters-intervention",
            f"edge {src} -> {dst} enters the intervention variable",
        )
    if (src, dst) not in item.expr.graph.edges:
        raise RuleError(
            "edge-not-in-factual-graph",
            f"edge {src} -> {dst} is not in the factual graph",
        )
    try:
        return j.erase(EdgeItem(src, dst))
    except ValueError:
        raise RuleError("edge-not-in-context", f"edge {src} -> {dst} not in context")


def apply_v_cut(j: Judgment, attr: Attribution) -> Judgment:
    """Erase a loose attribution that the factual data point assigns verbatim
    and whose variable is not an effect of the intervention variable."""
    expr = _require_intervention(j).expr
    factual, blocked = value_cut_sets(expr)
    if attr not in factual:
        raise RuleError(
            "attribution-not-factual",
            f"{attr.var} with this value is not in the factual data point",
        )
    if attr.var in blocked:
        raise RuleError(
            "descendant-of-intervention",
            f"{attr.var} is an effect of {expr.intervention.var} in the factual graph",
        )
    try:
        return j.erase(AttrItem(attr))
    except ValueError:
        raise RuleError("attribution-not-in-context", f"{attr.var} not loose in context")


def value_cut_sets(expr: InterventionExpr) -> tuple[frozenset[Attribution], frozenset[str]]:
    """What a value cut under `expr` checks: the factual attributions, and
    the intervention variable with all its effects in the factual graph.
    Computed once per expression object and kept on it."""
    sets = expr.__dict__.get("_value_cut_sets")
    if sets is None:
        sets = frozenset(expr.datapoint), descendants(expr.graph, expr.intervention.var)
        object.__setattr__(expr, "_value_cut_sets", sets)
    return sets


# ---------------------------------------------------------------------------
# Proof objects and replay.


@dataclass(frozen=True)
class ProofStep:
    rule: RuleId
    item: Optional[ContextItem]
    premise: Optional[int]
    conclusion: Optional[Judgment]  # replay derives it when absent


@dataclass(frozen=True)
class Proof:
    assumptions: tuple[Judgment, ...]
    steps: tuple[ProofStep, ...]

    def __post_init__(self):
        object.__setattr__(self, "assumptions", tuple(self.assumptions))
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.assumptions:
            raise ValueError("a proof needs at least one assumption")
        if self.steps and self.steps[-1].conclusion is None:
            raise ValueError("the last step must record the certified conclusion")

    def conclusion(self) -> Judgment:
        if self.steps:
            return self.steps[-1].conclusion
        return self.assumptions[-1]

    def rule_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for s in self.steps:
            counts[s.rule.value] = counts.get(s.rule.value, 0) + 1
        return counts


@dataclass(frozen=True)
class ProofCheck:
    ok: bool
    step: Optional[int] = None
    code: Optional[str] = None
    reason: Optional[str] = None
    conclusion: Optional[Judgment] = field(default=None, compare=False, repr=False)  # if replayed


def _fail(step: int, code: str, reason: str) -> ProofCheck:
    return ProofCheck(False, step, code, reason)


def apply_step(rule: RuleId, premise: Judgment, item: Optional[ContextItem]) -> Judgment:
    """Apply one rule to a premise. `item` names what the rule adds or
    erases; an item of the wrong kind is a `bad-item` RuleError."""
    if rule is RuleId.WEAKENING:
        if not isinstance(item, InterventionItem):
            raise RuleError("bad-item", "weakening needs an intervention item")
        return apply_c_weakening(premise, item.expr)
    if rule is RuleId.INTERVENTION_CUT:
        got = apply_i_cut(premise)
        iv = premise.intervention_item().expr.intervention
        if item != AttrItem(Attribution(iv.var, iv.value)):
            raise RuleError("bad-item", "intervention cut needs the imposed attribution as item")
        return got
    if rule is RuleId.EDGE_CUT:
        if not isinstance(item, EdgeItem):
            raise RuleError("bad-item", "edge cut needs an edge item")
        return apply_tri_cut(premise, (item.src, item.dst))
    if not isinstance(item, AttrItem):  # RuleId.VALUE_CUT, the last of the four rules
        raise RuleError("bad-item", "value cut needs an attribution item")
    return apply_v_cut(premise, item.attribution)


def check_proof(p: Proof) -> ProofCheck:
    """Replay every step of a proof from its assumptions.

    A proof passes iff no assumption carries an intervention expression
    (one may enter only by weakening), each step's premise references only
    earlier judgments, the rule's preconditions hold, and re-applying the
    rule reproduces the step's conclusion exactly wherever one is recorded.
    Premises are always the replayed judgments, never the recorded ones.
    """
    if any(a.intervention_item() is not None for a in p.assumptions):
        reason = "an assumption carries an intervention expression"
        return ProofCheck(False, None, "intervention-in-assumption", reason)
    base = len(p.assumptions)
    derived = list(p.assumptions)
    for k, step in enumerate(p.steps):
        idx = step.premise
        if idx is None:
            return _fail(k, "premise-missing", "step requires a premise index")
        if idx < 0 or idx >= base + len(p.steps):
            return _fail(k, "premise-out-of-range", f"premise index {idx} out of range")
        if idx >= base + k:
            return _fail(k, "premise-order", f"premise index {idx} does not precede step {k}")
        try:
            got = apply_step(step.rule, derived[idx], step.item)
        except RuleError as e:
            return _fail(k, e.code, str(e))
        if step.conclusion is not None and got != step.conclusion:
            return _fail(
                k, "conclusion-mismatch", "recorded conclusion differs from replayed one"
            )
        derived.append(got)
    return ProofCheck(True, conclusion=derived[-1])
