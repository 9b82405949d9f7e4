"""Graph algorithms over causal graphs: the reflexive-transitive causal
closure with intermediate-cause witnesses, descendant sets, and the
edge-erasing graph intervention.
"""

from __future__ import annotations

from typing import Optional

from .model import CausalGraph


class MediateRelation:
    """Reflexive-transitive closure of a causal graph.

    Each entry (a, b, M) records that a is a (possibly mediate) cause of b
    with witness set M: the union, over all a-to-b paths, of the path nodes
    excluding a. Every node carries the reflexive entry (v, v, {v}).
    """

    def __init__(self, entries: dict[tuple[str, str], frozenset[str]]):
        self._by_pair = dict(entries)

    @property
    def entries(self) -> frozenset[tuple[str, str, frozenset[str]]]:
        return frozenset((a, b, m) for (a, b), m in self._by_pair.items())

    def pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset(self._by_pair)

    def witnesses(self, a: str, b: str) -> Optional[frozenset[str]]:
        return self._by_pair.get((a, b))

    def __len__(self):
        return len(self._by_pair)

    def __eq__(self, other):
        if not isinstance(other, MediateRelation):
            return NotImplemented
        return self._by_pair == other._by_pair


def mediate_closure(g: CausalGraph) -> MediateRelation:
    """Compute all mediate-cause entries with their witness sets.

    Witness sets are accumulated along a topological order: the witnesses of
    (a, b) are the union of the witnesses of (a, x) over reached parents x
    of b, plus b itself. Only nodes after a in the order can be reached.
    """
    order = g.topological_order()
    entries: dict[tuple[str, str], frozenset[str]] = {}
    for i, a in enumerate(order):
        reached: dict[str, set[str]] = {a: set()}
        for b in order[i + 1 :]:
            hits = [reached[x] for x in g.parents(b) if x in reached]
            if hits:
                reached[b] = {b}.union(*hits)
        for b, m in reached.items():
            entries[(a, b)] = frozenset(m)
    for v in g.nodes:
        entries[(v, v)] = frozenset({v})
    return MediateRelation(entries)


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
