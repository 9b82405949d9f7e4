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
    pairs = ((a, b) for a in order for b in desc[a])
    return MediateRelation(
        {(a, b): (desc[a] & anc[b]) - {a} if a != b else frozenset({a}) for a, b in pairs}
    )


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
