import dataclasses
import itertools
import random

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from cfcheck import (
    Atom,
    AttrItem,
    Attribution,
    Case,
    CausalGraph,
    Complement,
    DataPoint,
    EdgeItem,
    GraphCycle,
    Intervention,
    InterventionExpr,
    InterventionItem,
    InvalidModel,
    Judgment,
    Proof,
    Sum,
    cf_verdict,
    variables_of,
)
from cfcheck.model import check_probability, check_token
from conftest import random_dag
from spec import value_matches


def test_token_validation():
    for ok in ("Gender", "65K", "1100", "a_b.c", "5y"):
        assert check_token(ok) == ok
    for bad in ("", "a b", "a-b", "a+b", None):
        with pytest.raises(InvalidModel):
            check_token(bad)


def test_variables_of():
    dp = DataPoint(
        tuple(
            Attribution(v, Atom(x))
            for v, x in [
                ("Gender", "m"),
                ("MS", "mar"),
                ("SAT", "1100"),
                ("GAI", "65K"),
                ("Degree", "PhD"),
                ("Experience", "5y"),
            ]
        )
    )
    assert variables_of(dp) == {"Gender", "MS", "SAT", "GAI", "Degree", "Experience"}
    assert variables_of(DataPoint(())) == frozenset()
    dp2 = DataPoint(
        (Attribution("A", Atom("x")), Attribution("B", Sum((Atom("y"), Atom("z")))))
    )
    assert variables_of(dp2) == {"A", "B"}


def test_duplicate_variable_rejected():
    with pytest.raises(InvalidModel):
        DataPoint((Attribution("A", Atom("x")), Attribution("A", Atom("y"))))


def test_sum_invariants():
    with pytest.raises(InvalidModel):
        Sum((Atom("a"),))
    with pytest.raises(InvalidModel):
        Sum((Atom("a"), Atom("a")))
    # double complement is stored as-is, no simplification
    t = Complement(Complement(Atom("a")))
    assert t.inner == Complement(Atom("a"))


def test_value_matches_examples():
    married_or_divorced = Sum((Atom("married"), Atom("divorced")))
    assert value_matches(married_or_divorced, "divorced")
    assert not value_matches(Complement(Atom("white")), "white")
    assert value_matches(Complement(Sum((Atom("a"), Atom("b")))), "c")


def test_value_matches_complement_of_sum_truth_table():
    # brute-force truth table over {a, b, c}: !(a+b) matches exactly what a+b rejects
    term = Sum((Atom("a"), Atom("b")))
    for tok in ("a", "b", "c"):
        assert value_matches(Complement(term), tok) == (tok not in ("a", "b"))


@st.composite
def value_terms(draw, depth=3):
    if depth == 0:
        return Atom(draw(st.sampled_from("abcde")))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return Atom(draw(st.sampled_from("abcde")))
    if kind == 1:
        return Complement(draw(value_terms(depth=depth - 1)))
    members = draw(
        st.lists(value_terms(depth=depth - 1), min_size=2, max_size=3, unique=True)
    )
    return Sum(tuple(members))


@given(value_terms(), st.sampled_from("abcdef"))
def test_value_matches_total_and_complementary(term, tok):
    a = value_matches(term, tok)
    b = value_matches(Complement(term), tok)
    assert isinstance(a, bool) and a != b


def test_graph_invariants():
    with pytest.raises(InvalidModel):
        CausalGraph({"A"}, {("A", "B")})
    with pytest.raises(InvalidModel):
        CausalGraph({"A"}, {("A", "A")})
    with pytest.raises(GraphCycle) as exc:
        CausalGraph({"A", "B"}, {("A", "B"), ("B", "A")})
    cycle = exc.value.cycle
    assert cycle[0] == cycle[-1] and set(cycle) == {"A", "B"} and len(cycle) == 3


def test_probability_validation():
    assert check_probability(Fraction(3, 5)) == Fraction(3, 5)
    with pytest.raises(InvalidModel):
        check_probability(Fraction(6, 5))
    with pytest.raises(InvalidModel):
        check_probability(Fraction(-1, 5))
    with pytest.raises(InvalidModel):
        check_probability(0.6)  # floats are banned from the kernel


def test_judgment_multiset_equality():
    items = (
        EdgeItem("A", "B"),
        AttrItem(Attribution("A", Atom("x"))),
        AttrItem(Attribution("B", Atom("y"))),
    )
    j1 = Judgment(items, "T", Atom("yes"), Fraction(1, 2))
    j2 = Judgment(items[::-1], "T", Atom("yes"), Fraction(1, 2))
    assert j1 == j2 and hash(j1) == hash(j2)
    # multiset, not set: multiplicities matter
    j3 = Judgment(items + (EdgeItem("A", "B"),), "T", Atom("yes"), Fraction(1, 2))
    assert j1 != j3
    assert j1 != Judgment(items, "T", Atom("yes"), Fraction(1, 3))


def test_judgment_target_not_in_context():
    with pytest.raises(InvalidModel):
        Judgment(
            (AttrItem(Attribution("T", Atom("x"))),), "T", Atom("yes"), Fraction(1)
        )


def test_graph_adjacency_and_order_match_edges():
    rng = random.Random(11)
    for _ in range(200):
        g = random_dag(rng)
        position = {v: i for i, v in enumerate(g.topological_order())}
        assert sorted(position) == sorted(g.nodes)
        assert all(position[s] < position[d] for s, d in g.edges)
        for v in g.nodes:
            assert g.children(v) == {d for s, d in g.edges if s == v}
            assert g.parents(v) == {s for s, d in g.edges if d == v}


def test_intervention_value_must_be_atomic():
    for value in (Sum((Atom("a"), Atom("b"))), Complement(Atom("a"))):
        with pytest.raises(InvalidModel, match="atomic"):
            Intervention("A", value)


def test_judgment_holds_at_most_one_intervention_expression():
    g = CausalGraph({"A", "B"}, {("A", "B")})
    e = InterventionExpr(g, DataPoint(()), Intervention("A", Atom("x")))
    f = InterventionExpr(g, DataPoint(()), Intervention("A", Atom("z")))
    for items in ((e, e), (e, f)):
        with pytest.raises(InvalidModel, match="at most one intervention"):
            Judgment(tuple(map(InterventionItem, items)), "B", Atom("y"), Fraction(1))


_AB = CausalGraph({"A", "B"}, {("A", "B")})
_J = Judgment((), "T", Atom("x"), Fraction(1, 2))
_FLOAT = "probabilities must be exact rationals, not floats"


@pytest.mark.parametrize(
    "build, expected",
    [
        pytest.param(
            lambda: Judgment((), "T", Atom("x"), Fraction(3, 2)),
            InvalidModel("probability out of range: 3/2"),
            id="judgment-prob",
        ),
        pytest.param(
            lambda: Judgment((), "T-1", Atom("x"), Fraction(1)),
            InvalidModel("invalid token: 'T-1'"),
            id="judgment-target",
        ),
        pytest.param(
            lambda: EdgeItem("A", "B-1"), InvalidModel("invalid token: 'B-1'"), id="edge-dst"
        ),
        pytest.param(
            lambda: EdgeItem("B-1", "A"), InvalidModel("invalid token: 'B-1'"), id="edge-src"
        ),
        pytest.param(lambda: Atom("x-1"), InvalidModel("invalid token: 'x-1'"), id="atom"),
        pytest.param(
            lambda: Attribution("A-1", Atom("x")),
            InvalidModel("invalid token: 'A-1'"),
            id="attribution-var",
        ),
        pytest.param(
            lambda: Intervention("A-1", Atom("x")),
            InvalidModel("invalid token: 'A-1'"),
            id="intervention-var",
        ),
        pytest.param(
            lambda: Case(_AB, DataPoint(()), Intervention("A", Atom("z")), "B", Atom("y"),
                         factual_prob=Fraction(3, 2)),
            InvalidModel("probability out of range: 3/2"),
            id="case-prob",
        ),
        pytest.param(
            lambda: Case(_AB, DataPoint(()), Intervention("A", Atom("z")), "B", Atom("y"),
                         factual_prob=0.5),
            InvalidModel(_FLOAT),
            id="case-float",
        ),
        pytest.param(
            lambda: cf_verdict(0.5, Fraction(1, 2), Fraction(0), _J, Proof((_J,), ())),
            InvalidModel(_FLOAT),
            id="verdict-p",
        ),
        pytest.param(
            lambda: cf_verdict(Fraction(1, 2), 0.5, Fraction(0), _J, Proof((_J,), ())),
            InvalidModel(_FLOAT),
            id="verdict-q",
        ),
        pytest.param(lambda: check_probability(1), Fraction(1), id="probability-int"),
        pytest.param(
            lambda: Sum([Atom("a"), Atom("b")]), Sum((Atom("a"), Atom("b"))), id="sum-list"
        ),
        pytest.param(
            lambda: DataPoint([Attribution("A", Atom("x"))]),
            DataPoint((Attribution("A", Atom("x")),)),
            id="datapoint-list",
        ),
        pytest.param(
            lambda: CausalGraph({"A", "B"}, [["A", "B"]]),
            CausalGraph(frozenset({"A", "B"}), frozenset({("A", "B")})),
            id="graph-sets-and-lists",
        ),
        pytest.param(
            lambda: Judgment([EdgeItem("A", "B")], "T", Atom("x"), 1),
            Judgment((EdgeItem("A", "B"),), "T", Atom("x"), Fraction(1)),
            id="judgment-list",
        ),
        pytest.param(lambda: Proof([_J], []), Proof((_J,), ()), id="proof-lists"),
    ],
)
def test_constructors_check_and_normalise_their_inputs(build, expected):
    # an invalid input raises the expected error with its message; a valid
    # one built from lists, sets or an int equals and hashes like the value
    # built from tuples, frozensets and a Fraction, field type by field type
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as exc:
            build()
        assert str(exc.value) == str(expected)
        return
    got = build()
    assert got == expected and hash(got) == hash(expected) and type(got) is type(expected)
    if dataclasses.is_dataclass(expected):
        assert [type(getattr(got, f.name)) for f in dataclasses.fields(got)] == [
            type(getattr(expected, f.name)) for f in dataclasses.fields(expected)
        ]
