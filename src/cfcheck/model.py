"""Core vocabulary of the calculus: variables, value terms, attributions,
data points, causal graphs, interventions, cases, judgments and probabilities.

Everything here is immutable after construction and validated eagerly, so
any value of these types that exists is structurally well-formed.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

# Variables and atomic values: the one token rule, shared by the parser.
TOKEN_PATTERN = r"[A-Za-z0-9_.]+"
_TOKEN_RE = re.compile(TOKEN_PATTERN + r"\Z")


class InvalidModel(ValueError):
    """A structural invariant was violated; `var`, if given, names the variable at fault."""

    def __init__(self, message: str, var: Optional[str] = None):
        self.var = var
        super().__init__(message)


class UnknownVariable(InvalidModel):
    """A variable is used that the causal graph does not have."""

    def __init__(self, var: str):
        super().__init__(f"unknown variable: {var}", var)


class GraphCycle(InvalidModel):
    """A candidate causal graph contains a directed cycle."""

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__("cycle: " + " -> ".join(self.cycle))


def check_token(name: str) -> str:
    """Validate a variable or atomic value token (letters, digits, _, .)."""
    if not isinstance(name, str) or not _TOKEN_RE.match(name):
        raise InvalidModel(f"invalid token: {name!r}")
    return name


# ---------------------------------------------------------------------------
# Value terms: atoms, sums of alternatives, complements.


@dataclass(frozen=True)
class Atom:
    token: str

    def __post_init__(self):
        check_token(self.token)


@dataclass(frozen=True)
class Sum:
    members: tuple["ValueTerm", ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if len(self.members) < 2:
            raise InvalidModel("sum value needs at least two members")
        seen = set()
        for m in self.members:
            if m in seen:
                raise InvalidModel(f"duplicate member in sum value: {m}")
            seen.add(m)


@dataclass(frozen=True)
class Complement:
    inner: "ValueTerm"


ValueTerm = Union[Atom, Sum, Complement]


def value_matches(term: ValueTerm, observed: str) -> bool:
    """Decide whether an observed atomic token satisfies a value term.

    An atom matches itself, a sum matches if any member does, and a
    complement matches if its inner term does not.
    """
    if isinstance(term, Atom):
        return term.token == observed
    if isinstance(term, Sum):
        return any(value_matches(m, observed) for m in term.members)
    if isinstance(term, Complement):
        return not value_matches(term.inner, observed)
    raise TypeError(f"not a value term: {term!r}")


# ---------------------------------------------------------------------------
# Attributions and data points.


@dataclass(frozen=True)
class Attribution:
    var: str
    value: ValueTerm

    def __post_init__(self):
        check_token(self.var)


@dataclass(frozen=True)
class DataPoint:
    """Ordered list of attributions; each variable occurs at most once."""

    attributions: tuple[Attribution, ...]

    def __post_init__(self):
        object.__setattr__(self, "attributions", tuple(self.attributions))
        seen = set()
        for a in self.attributions:
            if a.var in seen:
                raise InvalidModel(f"duplicate variable in data point: {a.var}", a.var)
            seen.add(a.var)

    def value_of(self, var: str) -> Optional[ValueTerm]:
        for a in self.attributions:
            if a.var == var:
                return a.value
        return None

    def __iter__(self):
        return iter(self.attributions)


def variables_of(dp: DataPoint) -> frozenset[str]:
    """The set of variables attributed by a data point."""
    return frozenset(a.var for a in dp.attributions)


# ---------------------------------------------------------------------------
# Causal graphs.


def _cycle_or_order(succ: dict[str, list[str]]) -> tuple[Optional[list[str]], list[str]]:
    """Iterative depth-first search: one cycle [v0, ..., v0] or None, and,
    when there is none, the nodes in topological order."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in succ}
    finished: list[str] = []
    for root in sorted(succ):
        if color[root] != WHITE:
            continue
        color[root] = GREY
        stack, pending = [root], [iter(succ[root])]
        while stack:
            for m in pending[-1]:
                if color[m] == GREY:
                    return stack[stack.index(m) :] + [m], []
                if color[m] == WHITE:
                    color[m] = GREY
                    stack.append(m)
                    pending.append(iter(succ[m]))
                    break
            else:
                pending.pop()
                color[stack[-1]] = BLACK
                finished.append(stack.pop())
    finished.reverse()
    return None, finished


def find_cycle(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> Optional[list[str]]:
    """Return one directed cycle as a node sequence [v0, ..., v0], or None."""
    succ: dict[str, list[str]] = {n: [] for n in nodes}
    for src, dst in edges:
        succ.setdefault(src, []).append(dst)
        succ.setdefault(dst, [])
    return _cycle_or_order(succ)[0]


@dataclass(frozen=True)
class CausalGraph:
    """Acyclic directed graph of immediate causal relations. Its adjacency
    and a topological order are built once, by the acyclicity check."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        succ: dict[str, list[str]] = {check_token(n): [] for n in self.nodes}
        pred: dict[str, list[str]] = {n: [] for n in self.nodes}
        for src, dst in self.edges:
            try:
                succ[src].append(dst)
                pred[dst].append(src)
            except KeyError as e:
                raise UnknownVariable(e.args[0])
        cycle, order = _cycle_or_order(succ)
        if cycle:
            raise GraphCycle(cycle)
        # tuples, not lists: a parsed proof holds one graph per judgment
        object.__setattr__(self, "_succ", {n: tuple(m) for n, m in succ.items()})
        object.__setattr__(self, "_pred", {n: tuple(m) for n, m in pred.items()})
        object.__setattr__(self, "_order", tuple(order))

    def require(self, *names: str) -> None:
        """Raise UnknownVariable for the first name that is not a node."""
        for name in names:
            if name not in self.nodes:
                raise UnknownVariable(name)

    def parents(self, node: str) -> frozenset[str]:
        return frozenset(self._pred.get(node, ()))

    def children(self, node: str) -> frozenset[str]:
        return frozenset(self._succ.get(node, ()))

    def topological_order(self) -> tuple[str, ...]:
        """Every node, each after all of its causes."""
        return self._order


# ---------------------------------------------------------------------------
# Interventions and cases.


@dataclass(frozen=True)
class Intervention:
    """Imposition of an atomic value on one variable."""

    var: str
    value: Atom

    def __post_init__(self):
        check_token(self.var)
        if not isinstance(self.value, Atom):
            raise InvalidModel("intervention values must be atomic")


@dataclass(frozen=True)
class InterventionExpr:
    """A factual graph and data point bracketed with an imposed attribution."""

    graph: CausalGraph
    datapoint: DataPoint
    intervention: Intervention

    def __post_init__(self):
        self.graph.require(self.intervention.var, *(a.var for a in self.datapoint))


@dataclass(frozen=True)
class Case:
    """One counterfactual fairness question about one individual."""

    graph: CausalGraph
    factual: DataPoint
    intervention: Intervention
    target: str
    target_value: ValueTerm
    factual_prob: Optional[Fraction] = None
    candidate_override: Optional[DataPoint] = None

    def __post_init__(self):
        self.graph.require(
            *(a.var for a in self.factual),
            self.intervention.var,
            self.target,
            *(a.var for a in self.candidate_override or ()),
        )
        if self.intervention.var == self.target:
            raise InvalidModel("intervention variable must differ from the target", self.target)
        if self.target in variables_of(self.factual):
            msg = f"target {self.target} attributed in the factual data point"
            raise InvalidModel(msg, self.target)
        if self.target in variables_of(self.candidate_override or DataPoint(())):
            raise InvalidModel(f"target {self.target} attributed in the candidate", self.target)
        if self.factual_prob is not None:
            object.__setattr__(self, "factual_prob", check_probability(self.factual_prob))

    def intervention_expr(self) -> InterventionExpr:
        return InterventionExpr(self.graph, self.factual, self.intervention)


# ---------------------------------------------------------------------------
# Probabilities: exact rationals in [0, 1], no floats anywhere.


def check_probability(p) -> Fraction:
    if isinstance(p, float):
        raise InvalidModel("probabilities must be exact rationals, not floats")
    p = Fraction(p)
    if p < 0 or p > 1:
        raise InvalidModel(f"probability out of range: {p}")
    return p


# ---------------------------------------------------------------------------
# Judgment contexts and judgments.


@dataclass(frozen=True)
class EdgeItem:
    src: str
    dst: str

    def __post_init__(self):
        check_token(self.src)
        check_token(self.dst)


@dataclass(frozen=True)
class AttrItem:
    attribution: Attribution


@dataclass(frozen=True)
class InterventionItem:
    expr: InterventionExpr


ContextItem = Union[EdgeItem, AttrItem, InterventionItem]


@dataclass(frozen=True, eq=False)
class Judgment:
    """Context multiset entailing `target = value` with an exact probability.

    Contexts are stored as tuples for reproducible rendering, but equality
    is multiset equality: two judgments with permuted contexts are equal.
    """

    context: tuple[ContextItem, ...]
    target: str
    value: ValueTerm
    prob: Fraction

    def __post_init__(self):
        object.__setattr__(self, "context", tuple(self.context))
        object.__setattr__(self, "prob", check_probability(self.prob))
        check_token(self.target)
        interventions = [i for i in self.context if isinstance(i, InterventionItem)]
        if len(interventions) > 1:
            raise InvalidModel("a context may hold at most one intervention expression")
        for item in self.context:
            if isinstance(item, AttrItem) and item.attribution.var == self.target:
                raise InvalidModel(f"target {self.target} attributed in its own context")

    def intervention_item(self) -> Optional[InterventionItem]:
        for item in self.context:
            if isinstance(item, InterventionItem):
                return item
        return None

    def edge_items(self) -> list[EdgeItem]:
        return [i for i in self.context if isinstance(i, EdgeItem)]

    def attr_items(self) -> list[AttrItem]:
        return [i for i in self.context if isinstance(i, AttrItem)]

    def __eq__(self, other):
        if not isinstance(other, Judgment):
            return NotImplemented
        return (
            Counter(self.context) == Counter(other.context)
            and self.target == other.target
            and self.value == other.value
            and self.prob == other.prob
        )

    def __hash__(self):
        return hash(
            (frozenset(Counter(self.context).items()), self.target, self.value, self.prob)
        )


def remove_one(context: tuple[ContextItem, ...], item: ContextItem) -> tuple[ContextItem, ...]:
    """Remove exactly one occurrence of an item from a context tuple."""
    out = list(context)
    out.remove(item)  # ValueError if absent; callers check first
    return tuple(out)
