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
    rel = mediate_closure(loan_graph)
    # two MS->Loan paths: direct, and via Experience and GAI
    assert rel.witnesses("MS", "Loan") == {"Experience", "GAI", "Loan"}
    # SAT reaches GAI via Degree alone and via Degree then Experience
    assert rel.witnesses("SAT", "GAI") == {"Degree", "Experience", "GAI"}
    assert rel.witnesses("MS", "MS") == {"MS"}
    assert len(rel) == 25


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
        assert {(a, b) for a, b, _ in rel} == set(expected)
        for (a, b), m in expected.items():
            assert rel.witnesses(a, b) == m
        assert list(rel) == sorted((a, b, m) for (a, b), m in expected.items())
        assert len(rel) == len(expected)


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
        count = sum(1 for _ in mediate_closure(g))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(edges) == 590 and count == len(mediate_closure(g))
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
        rel = mediate_closure(relabelled_dag(rng))
        assert list(rel.sorted_entries()) == [
            (a, b, sorted(rel.witnesses(a, b))) for a, b, _ in rel
        ]


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
            assert not any(dst == a and src != a for src, dst, _ in rel)
