"""Graph algorithms over causal graphs: the reflexive-transitive causal
closure with intermediate-cause witnesses, descendant sets, and the
edge-erasing graph intervention.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterator

from .model import CausalGraph


class MediateRelation:
    """Reflexive-transitive closure of a causal graph.

    Each entry (a, b, M) records that a is a (possibly mediate) cause of b
    with witness set M: the union, over all a-to-b paths, of the path nodes
    excluding a. Every node carries the reflexive entry (v, v, {v}).

    Only the reflexive Anc and Desc maps are stored; each witness set is
    computed as W(a, b) = (Desc(a) & Anc(b)) - {a} when it is read. Entries
    are read in one order, sorted by cause, then by effect.
    """

    def __init__(self, anc: dict[str, frozenset[str]], desc: dict[str, frozenset[str]]):
        self._anc = anc
        self._desc = desc

    @property
    def entries(self) -> frozenset[tuple[str, str, frozenset[str]]]:
        return frozenset((a, b, frozenset(w)) for a, b, w in self.sorted_entries())

    def sorted_entries(self) -> Iterator[tuple[str, str, list[str]]]:
        """Every entry, each witness set a list in name order."""
        anc = self._anc
        for a in sorted(self._desc):
            names = sorted(self._desc[a])  # once per cause, then filtered by each Anc(b)
            rest = [v for v in names if v != a]
            for b in names:
                yield a, b, [a] if b == a else list(compress(rest, map(anc[b].__contains__, rest)))


def mediate_closure(g: CausalGraph) -> MediateRelation:
    """All mediate-cause entries: (v, v) with witnesses {v}, and each b != a
    in Desc(a) with W(a, b) = (Desc(a) & Anc(b)) - {a}, Desc and Anc being
    reflexive. Anc is built along the topological order, Desc along its reverse."""
    order = g.topological_order()
    anc: dict[str, frozenset[str]] = {}
    for v in order:
        anc[v] = frozenset({v}).union(*(anc[p] for p in g.parents(v)))
    desc: dict[str, frozenset[str]] = {}
    for v in reversed(order):
        desc[v] = frozenset({v}).union(*(desc[c] for c in g.children(v)))
    return MediateRelation(anc, desc)


def descendants(g: CausalGraph, a: str) -> frozenset[str]:
    """All direct or indirect effects of a variable, plus the variable
    itself (reflexive closure)."""
    g.require(a)
    seen = {a}
    frontier = [a]
    while frontier:
        n = frontier.pop()
        for m in g.children(n):
            if m not in seen:
                seen.add(m)
                frontier.append(m)
    return frozenset(seen)


def intervene_graph(g: CausalGraph, a: str) -> CausalGraph:
    """Erase every edge entering the intervened variable; nodes unchanged."""
    g.require(a)
    return CausalGraph(g.nodes, frozenset(e for e in g.edges if e[1] != a))
