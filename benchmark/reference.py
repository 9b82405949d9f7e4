"""Known answers computed by the benchmark's own code, never by cfcheck.

Graphs are given as a node list and an edge list; value terms as the set of
tokens they accept.  Every function here is a plain reference the benchmark
compares cfcheck's outputs against after each timer stops.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

Edges = list[tuple[str, str]]


def descendants(nodes: Iterable[str], edges: Edges, a: str) -> set[str]:
    """`a` plus every node reachable from it (breadth-first search)."""
    succ: dict[str, list[str]] = {v: [] for v in nodes}
    for s, d in edges:
        succ[s].append(d)
    seen = {a}
    frontier = [a]
    while frontier:
        nxt = []
        for v in frontier:
            for w in succ[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def reduced_point(
    nodes: list[str], edges: Edges, factual: list[tuple[str, str]], iv: str, imposed: str
) -> list[tuple[str, str]]:
    """The imposed attribution followed by every factual attribution whose
    variable is not an effect of the intervened variable, in factual order."""
    blocked = descendants(nodes, edges, iv)
    return [(iv, imposed)] + [(v, t) for v, t in factual if v not in blocked]


def proof_steps(edges: Edges, iv: str, reduced: list[tuple[str, str]]) -> int:
    """Weakening, intervention cut, one edge cut per edge of the intervened
    graph, one value cut per unaffected factual attribution."""
    return 1 + 1 + sum(1 for _, d in edges if d != iv) + (len(reduced) - 1)


# ---------------------------------------------------------------------------
# Reachability and closure witnesses over Python-int bitsets.


def _topological(nodes: list[str], edges: Edges) -> list[str]:
    indeg = {v: 0 for v in nodes}
    succ: dict[str, list[str]] = {v: [] for v in nodes}
    for s, d in edges:
        succ[s].append(d)
        indeg[d] += 1
    order = [v for v in nodes if indeg[v] == 0]
    for v in order:  # grows while iterating
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(order) != len(nodes):
        raise ValueError("graph has a cycle")
    return order


def reachability(nodes: list[str], edges: Edges) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
    """Bit per node, the nodes each node reaches and the nodes reaching it,
    all reflexive."""
    bit = {v: 1 << i for i, v in enumerate(nodes)}
    succ: dict[str, list[str]] = {v: [] for v in nodes}
    pred: dict[str, list[str]] = {v: [] for v in nodes}
    for s, d in edges:
        succ[s].append(d)
        pred[d].append(s)
    order = _topological(nodes, edges)
    reach: dict[str, int] = {}
    for v in reversed(order):
        m = bit[v]
        for w in succ[v]:
            m |= reach[w]
        reach[v] = m
    coreach: dict[str, int] = {}
    for v in order:
        m = bit[v]
        for u in pred[v]:
            m |= coreach[u]
        coreach[v] = m
    return bit, reach, coreach


def closure_witnesses(nodes: list[str], edges: Edges) -> dict[tuple[str, str], frozenset[str]]:
    """Every (a, b) with a reaching b: {x != a : a reaches x and x reaches b},
    and (v, v) with {v}."""
    bit, reach, coreach = reachability(nodes, edges)
    out = {}
    for a in nodes:
        for b in nodes:
            if a == b:
                out[(a, b)] = frozenset({a})
            elif reach[a] & bit[b]:
                m = reach[a] & coreach[b] & ~bit[a]
                out[(a, b)] = frozenset(x for x in nodes if m & bit[x])
    return out


def check_closure_output(text: str, nodes: list[str], edges: Edges) -> Optional[str]:
    """Compare `cfcheck closure` output lines `a -> b via {x, y}` with the
    reference witness sets; return a description of the first difference."""
    bit, reach, coreach = reachability(nodes, edges)
    lines = text.splitlines()
    expected_pairs = sum(reach[a].bit_count() for a in nodes)
    if len(lines) != expected_pairs:
        return f"{len(lines)} closure entries, expected {expected_pairs}"
    seen = set()
    for line in lines:
        head, sep, tail = line.partition(" via {")
        src, arrow, dst = head.partition(" -> ")
        if not sep or not arrow or not tail.endswith("}") or src not in bit or dst not in bit:
            return f"malformed closure line {line[:80]!r}"
        if (src, dst) in seen:
            return f"duplicate closure entry {src} -> {dst}"
        seen.add((src, dst))
        names = tail[:-1].split(", ") if tail != "}" else []
        got = 0
        for x in names:
            if x not in bit:
                return f"unknown witness {x!r} in {src} -> {dst}"
            got |= bit[x]
        if src == dst:
            want = bit[src]
        elif reach[src] & bit[dst]:
            want = reach[src] & coreach[dst] & ~bit[src]
        else:
            return f"{src} does not reach {dst}"
        if got != want or len(names) != got.bit_count():
            return f"wrong witnesses for {src} -> {dst}"
    return None


# ---------------------------------------------------------------------------
# CSV frequencies.


class RowIndex:
    """Rows of a table as one bitset per (column, value)."""

    def __init__(self, columns: list[str], rows: list[list[str]]):
        self.domains: dict[str, list[str]] = {}
        self.masks: dict[tuple[str, str], int] = {}
        nbytes = (len(rows) + 7) // 8
        for j, col in enumerate(columns):
            buckets: dict[str, bytearray] = {}
            for i, row in enumerate(rows):
                ba = buckets.get(row[j])
                if ba is None:
                    ba = buckets[row[j]] = bytearray(nbytes)
                ba[i >> 3] |= 1 << (i & 7)
            self.domains[col] = sorted(buckets)
            for value, ba in buckets.items():
                self.masks[(col, value)] = int.from_bytes(ba, "little")
        self.all_rows = (1 << len(rows)) - 1

    def count(self, attrs: Iterable[tuple[str, frozenset[str]]]) -> int:
        """Rows whose cell in each column is one of the accepted tokens."""
        m = self.all_rows
        for col, accepted in attrs:
            col_mask = 0
            for value in accepted:
                col_mask |= self.masks.get((col, value), 0)
            m &= col_mask
        return m.bit_count()


def expected_check(
    index: RowIndex,
    factual: list[tuple[str, frozenset[str]]],
    sigma: list[tuple[str, frozenset[str]]],
    target: tuple[str, frozenset[str]],
    epsilon: Fraction,
    candidate_rejected: bool,
) -> tuple:
    """The outcome `check_case` must produce, in its own order of work:
    factual frequency p, then the counterfactual query over `sigma`, then
    the candidate check, then |p - q| <= epsilon."""
    p_den = index.count(factual)
    if p_den == 0:
        return ("UndefinedProbability",)
    p = Fraction(index.count(factual + [target]), p_den)
    q_den = index.count(sigma)
    if q_den == 0:
        return ("UndefinedProbability",)
    if candidate_rejected:
        return ("CandidateRejected",)
    q = Fraction(index.count(sigma + [target]), q_den)
    return ("verdict", abs(p - q) <= epsilon, p, q)
