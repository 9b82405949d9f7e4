"""Core vocabulary of the calculus: variables, value terms, attributions,
data points, causal graphs, interventions, cases, judgments and probabilities.

Everything here is immutable after construction and validated eagerly, so
any value of these types that exists is structurally well-formed. The one
constructor that skips validation, `Judgment.erase`, can only make a
judgment that would pass it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Optional, Union

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


def render_valueterm(t: ValueTerm) -> str:
    """A value term in the DSL's syntax."""
    if isinstance(t, Atom):
        return t.token
    if isinstance(t, Sum):
        return " + ".join(
            f"({render_valueterm(m)})" if isinstance(m, Sum) else render_valueterm(m)
            for m in t.members
        )
    if isinstance(t, Complement):
        inner = render_valueterm(t.inner)
        if isinstance(t.inner, Sum):
            inner = f"({inner})"
        return "!" + inner
    raise TypeError(f"not a value term: {t!r}")


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

    def __iter__(self):
        return iter(self.attributions)


def variables_of(dp: DataPoint) -> frozenset[str]:
    """The set of variables attributed by a data point."""
    return frozenset(a.var for a in dp.attributions)


# ---------------------------------------------------------------------------
# Causal graphs.


def _cycle_or_order(succ: dict[str, list[str]]) -> tuple[Optional[list[str]], list[str]]:
    """Iterative depth-first search: one cycle [v0, ..., v0] or None, and,
    when there is none, the nodes in topological order. Sorts each successor
    list in place: roots and successors are visited in sorted order, so
    neither answer depends on the hash seed."""
    for targets in succ.values():
        targets.sort()
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
        """The case's intervention expression, one object per case, so that
        what the kernel caches on it is computed once."""
        expr = self.__dict__.get("_expr")
        if expr is None:
            expr = InterventionExpr(self.graph, self.factual, self.intervention)
            object.__setattr__(self, "_expr", expr)
        return expr


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
    Equality reads both contexts and takes no shortcut; a derived proof
    records only its certified conclusion, so replaying it compares one
    judgment.

    A judgment made by `erase` shares its premise's items and keeps which of
    them are left as a bitmask, so a chain of cuts costs no O(E) copy per
    step; its `context` tuple is built when first read.
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
        object.__setattr__(self, "_intervention", interventions[0] if interventions else None)
        object.__setattr__(self, "_items", self.context)
        object.__setattr__(self, "_alive", (1 << len(self.context)) - 1)

    def __getattr__(self, name):
        """Only an erased judgment's `context` is missing: build it once."""
        if name != "context":
            raise AttributeError(name)
        bits = map("1".__eq__, reversed(bin(self._alive)[2:]))
        context = tuple(compress(self._items, bits))
        self.__dict__["context"] = context
        return context

    def erase(self, item: ContextItem) -> "Judgment":
        """This judgment with the first occurrence of `item` erased from its
        context; ValueError if there is none. It skips `__post_init__`: an
        erasure adds no intervention item and no attribution of the target,
        so what this judgment passed, its successor passes too."""
        index = self.__dict__.get("_index")
        if index is None:  # shared by every judgment erased from this one
            index = {}
            for k, it in enumerate(self._items):
                index.setdefault(it, []).append(k)
            object.__setattr__(self, "_index", index)
        alive = self._alive
        k = next((k for k in index.get(item, ()) if alive >> k & 1), None)
        if k is None:
            raise ValueError(f"not in context: {item!r}")
        new = object.__new__(Judgment)
        new.__dict__.update(
            target=self.target,
            value=self.value,
            prob=self.prob,
            _intervention=None if isinstance(item, InterventionItem) else self._intervention,
            _items=self._items,
            _alive=alive & ~(1 << k),
            _index=index,
        )
        return new

    def intervention_item(self) -> Optional[InterventionItem]:
        return self._intervention

    def edge_items(self) -> list[EdgeItem]:
        return [i for i in self.context if isinstance(i, EdgeItem)]

    def attr_items(self) -> list[AttrItem]:
        return [i for i in self.context if isinstance(i, AttrItem)]

    def __eq__(self, other):
        if not isinstance(other, Judgment):
            return NotImplemented
        if (self.target, self.value, self.prob) != (other.target, other.value, other.prob):
            return False
        return self.context == other.context or Counter(self.context) == Counter(other.context)

    def __hash__(self):
        return hash(
            (frozenset(Counter(self.context).items()), self.target, self.value, self.prob)
        )

