import csv
import io
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cfcheck import (
    Atom,
    Attribution,
    CausalGraph,
    DataPoint,
    Intervention,
    OracleError,
    OracleQuery,
    UndefinedProbability,
    variables_of,
)
from cfcheck.engine import Case
from cfcheck.kernel import Proof, apply_step
from spec import value_matches

DATA = Path(__file__).parent / "data"

LOAN_EDGES = frozenset(
    {
        ("Gender", "MS"),
        ("Gender", "Degree"),
        ("Gender", "Experience"),
        ("Degree", "Experience"),
        ("Degree", "GAI"),
        ("Experience", "GAI"),
        ("MS", "Loan"),
        ("GAI", "Loan"),
        ("SAT", "Degree"),
        ("MS", "Experience"),
    }
)
LOAN_NODES = frozenset({"Gender", "MS", "Degree", "Experience", "GAI", "Loan", "SAT"})


@pytest.fixture
def loan_graph():
    return CausalGraph(LOAN_NODES, LOAN_EDGES)


@pytest.fixture
def loan_factual():
    return DataPoint(
        (
            Attribution("Gender", Atom("m")),
            Attribution("MS", Atom("mar")),
            Attribution("SAT", Atom("1100")),
            Attribution("GAI", Atom("65K")),
            Attribution("Degree", Atom("PhD")),
            Attribution("Experience", Atom("5y")),
        )
    )


@pytest.fixture
def loan_case(loan_graph, loan_factual):
    from fractions import Fraction

    return Case(
        graph=loan_graph,
        factual=loan_factual,
        intervention=Intervention("MS", Atom("div")),
        target="Loan",
        target_value=Atom("yes"),
        factual_prob=Fraction(3, 5),
    )


@pytest.fixture
def data_dir():
    return DATA


def random_dag(rng: random.Random, max_nodes: int = 10, density: float = 0.5) -> CausalGraph:
    """A random DAG: edges only go from lower to higher node index."""
    n = rng.randint(1, max_nodes)
    nodes = [f"v{i}" for i in range(n)]
    edges = {
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < rng.uniform(0.0, density)
    }
    return CausalGraph(frozenset(nodes), frozenset(edges))


# Names whose string order differs from their index order: v10 sorts before
# v2, B before a, and _x and x.1 between the letters.
UNORDERED_NAMES = ("v10", "v2", "v1", "B", "a", "A_", "_x", "x.1", "x.10", "x.2", "Z9", "b")


def relabelled_dag(rng: random.Random) -> CausalGraph:
    """A random DAG whose nodes take names from UNORDERED_NAMES at random, so
    name order and topological order disagree."""
    g = random_dag(rng)
    order = sorted(g.nodes, key=lambda v: int(v[1:]))
    name = dict(zip(order, rng.sample(UNORDERED_NAMES, len(order))))
    return CausalGraph(
        frozenset(name.values()), frozenset((name[s], name[d]) for s, d in g.edges)
    )


def graph_text(g: CausalGraph) -> str:
    """The graph in the DSL's bare graph syntax."""
    return "graph {\n" + "".join(f"  {v};\n" for v in sorted(g.nodes)) + "".join(
        f"  {s} -> {d};\n" for s, d in sorted(g.edges)
    ) + "}\n"


def replayed_conclusions(proof: Proof) -> list:
    """Each step's judgment, derived by replaying the proof's steps through
    `kernel.apply_step`: a derived proof records only its last."""
    derived = list(proof.assumptions)
    for step in proof.steps:
        derived.append(apply_step(step.rule, derived[step.premise], step.item))
    return derived[len(proof.assumptions) :]


def brute_force_closure(g: CausalGraph) -> dict[tuple[str, str], frozenset[str]]:
    """Independent oracle: enumerate every simple path and union its nodes
    (source excluded); add reflexive entries."""

    def paths(a, b, seen):
        if a == b:
            yield [a]
            return
        for src, dst in g.edges:
            if src == a and dst not in seen:
                for tail in paths(dst, b, seen | {dst}):
                    yield [a] + tail

    entries = {}
    for a in g.nodes:
        for b in g.nodes:
            if a == b:
                entries[(a, b)] = frozenset({a})
                continue
            found = list(paths(a, b, {a}))
            if found:
                entries[(a, b)] = frozenset().union(*(set(p[1:]) for p in found))
    return entries


def brute_force_frequency(text: str, q: OracleQuery) -> Fraction:
    """Independent oracle for `CsvFrequencyOracle.query`: read the CSV into
    one dict per row and scan every row, testing each cell."""
    reader = csv.reader(io.StringIO(text))
    columns = next(reader)
    rows = [dict(zip(columns, raw)) for raw in reader if raw]
    for var in sorted(variables_of(q.attributions) | {q.target}):
        if var not in columns:
            raise OracleError(f"unknown column: {var}")
    denominator = 0
    numerator = 0
    for row in rows:
        if all(value_matches(a.value, row[a.var]) for a in q.attributions):
            denominator += 1
            if value_matches(q.target_value, row[q.target]):
                numerator += 1
    if denominator == 0:
        raise UndefinedProbability("no rows match the query attributions")
    return Fraction(numerator, denominator)
