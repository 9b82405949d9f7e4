import io
import random
import tracemalloc
from contextlib import redirect_stdout

import pytest

from cfcheck import (
    CausalGraph,
    GraphCycle,
    InvalidModel,
    descendants,
    intervene_graph,
    mediate_closure,
)
from cfcheck.cli import main
from conftest import brute_force_closure, graph_text, random_dag, relabelled_dag


def test_check_acyclic(loan_graph):
    CausalGraph(loan_graph.nodes, loan_graph.edges)  # acyclic: no GraphCycle
    CausalGraph({"A"}, set())
    with pytest.raises(GraphCycle) as exc:
        CausalGraph({"A", "B"}, {("A", "B"), ("B", "A")})
    cycle = exc.value.cycle
    assert cycle is not None and cycle[0] == cycle[-1] and set(cycle) == {"A", "B"}


def test_mediate_closure_witnesses(loan_graph):
    entries = mediate_closure(loan_graph).entries
    witnesses = {(a, b): m for a, b, m in entries}
    # two MS->Loan paths: direct, and via Experience and GAI
    assert witnesses["MS", "Loan"] == {"Experience", "GAI", "Loan"}
    # SAT reaches GAI via Degree alone and via Degree then Experience
    assert witnesses["SAT", "GAI"] == {"Degree", "Experience", "GAI"}
    assert witnesses["MS", "MS"] == {"MS"}
    assert len(entries) == 25


def test_mediate_closure_edgeless():
    rel = mediate_closure(CausalGraph({"A"}, set()))
    assert rel.entries == {("A", "A", frozenset({"A"}))}


def test_descendants_examples(loan_graph):
    assert descendants(loan_graph, "MS") == {"MS", "Experience", "GAI", "Loan"}
    assert descendants(loan_graph, "Loan") == {"Loan"}
    assert descendants(loan_graph, "Gender") == loan_graph.nodes - {"SAT"}
    with pytest.raises(InvalidModel):
        descendants(loan_graph, "Nope")


def test_intervene_graph_examples(loan_graph):
    gb = intervene_graph(loan_graph, "MS")
    assert gb.nodes == loan_graph.nodes
    assert gb.edges == loan_graph.edges - {("Gender", "MS")}
    assert len(gb.edges) == 9
    # exogenous variable: nothing to erase
    assert intervene_graph(loan_graph, "Gender") == loan_graph
    assert intervene_graph(loan_graph, "SAT") == loan_graph
    assert len(intervene_graph(loan_graph, "Loan").edges) == 8
    with pytest.raises(InvalidModel):
        intervene_graph(loan_graph, "Nope")


def test_intervene_graph_idempotent(loan_graph):
    once = intervene_graph(loan_graph, "MS")
    assert intervene_graph(once, "MS") == once


def test_closure_matches_brute_force_randomized():
    rng = random.Random(20250823)
    for _ in range(250):
        g = random_dag(rng)
        rel = mediate_closure(g)
        expected = brute_force_closure(g)
        entries = rel.entries
        witnesses = {(a, b): m for a, b, m in entries}
        assert set(witnesses) == set(expected)
        for (a, b), m in expected.items():
            assert witnesses[a, b] == m
        assert [(a, b, frozenset(w)) for a, b, w in rel.sorted_entries()] == sorted(
            (a, b, m) for (a, b), m in expected.items()
        )
        assert len(entries) == len(expected)


def test_closure_keeps_no_witness_table():
    # the ROADMAP generator graph: vi -> vj for j in i+1..i+5 at probability 0.6
    n = 200
    rng = random.Random(n)
    nodes = [f"v{i}" for i in range(n)]
    edges = {
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, min(n, i + 6))
        if rng.random() < 0.6
    }
    g = CausalGraph(frozenset(nodes), frozenset(edges))
    tracemalloc.start()
    try:
        count = sum(1 for _ in mediate_closure(g).sorted_entries())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(edges) == 590 and count == sum(len(descendants(g, v)) for v in g.nodes)
    assert peak < 16 * 2**20


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def test_closure_report_keeps_no_witness_table(tmp_path):
    # the graph above, printed through the CLI into a sink that keeps nothing
    n = 200
    rng = random.Random(n)
    nodes = [f"v{i}" for i in range(n)]
    edges = {
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, min(n, i + 6))
        if rng.random() < 0.6
    }
    path = tmp_path / "g.graph"
    path.write_text(graph_text(CausalGraph(frozenset(nodes), frozenset(edges))))
    tracemalloc.start()
    try:
        with redirect_stdout(_Discard()):
            code = main(["closure", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(edges) == 590 and code == 0
    assert peak < 16 * 2**20


def test_sorted_entries_list_each_witness_set_in_name_order():
    rng = random.Random(20261018)
    for _ in range(250):
        g = relabelled_dag(rng)
        expected = brute_force_closure(g)
        assert list(mediate_closure(g).sorted_entries()) == [
            (a, b, sorted(expected[a, b])) for a, b in sorted(expected)
        ]


def _broom(rng):
    return [("s", f"m{i}") for i in range(30)]


def _chains(rng):
    return [e for i in range(15) for e in (("s", f"m{i}"), (f"m{i}", f"t{i}"))]


def _band(rng):
    # the ROADMAP generator at n=12: vi -> vj for j in i+1..i+5 at probability 0.6
    return [(f"v{i}", f"v{j}") for i in range(12) for j in range(i + 1, min(12, i + 6))
            if rng.random() < 0.6]


@pytest.mark.parametrize("shape", [_broom, _chains, _band])
def test_sparse_shapes_read_as_brute_force_in_name_order(capsys, tmp_path, shape):
    rng = random.Random(20261020)
    path = tmp_path / "g.graph"
    for _ in range(3):
        # nodes renamed at random, so name order says nothing of the shape
        edges = shape(rng)
        old = sorted({v for e in edges for v in e})
        names = (f"{rng.choice('aBz_')}{k}" for k in rng.sample(range(10**4), len(old)))
        new = dict(zip(old, names))
        g = CausalGraph(frozenset(new.values()), frozenset((new[s], new[d]) for s, d in edges))
        expected = brute_force_closure(g)
        want = [(a, b, sorted(expected[a, b])) for a, b in sorted(expected)]
        assert list(mediate_closure(g).sorted_entries()) == want
        path.write_text(graph_text(g))
        assert main(["closure", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == "".join(f"{a} -> {b} via {{{', '.join(w)}}}\n" for a, b, w in want)


def test_descendant_properties_randomized():
    rng = random.Random(7)
    for _ in range(100):
        g = random_dag(rng)
        for a in g.nodes:
            d = descendants(g, a)
            assert a in d
            if not g.children(a):
                assert d == {a}
            gi = intervene_graph(g, a)
            assert descendants(gi, a) <= d
            rel = mediate_closure(gi)
            assert not any(dst == a and src != a for src, dst, _ in rel.sorted_entries())
