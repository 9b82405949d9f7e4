import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfcheck import (
    Atom,
    AttrItem,
    Attribution,
    CausalGraph,
    Complement,
    DataPoint,
    EdgeItem,
    Intervention,
    InterventionExpr,
    InterventionItem,
    Judgment,
    Sum,
)
from cfcheck.dsl import (
    ParseError,
    parse_case,
    parse_proof,
    parse_case_or_graph,
    parse_context_item,
    parse_judgment,
    parse_judgment_db,
    parse_probability_literal,
    render_context_item,
    render_judgment,
    render_probability,
    render_proof,
    render_valueterm,
)
from cfcheck import dsl
from cfcheck.engine import Case, derive_counterfactual, known_contexts
from cfcheck.kernel import Proof, ProofStep, RuleId, check_proof
from cfcheck.oracle import JudgmentDbOracle
from conftest import DATA, graph_text, random_dag, relabelled_dag, replayed_conclusions

CASE_TEXT = """
# comment lines are ignored
graph {
  Gender -> MS; Gender -> Degree; Gender -> Experience; Degree -> Experience;
  Degree -> GAI; Experience -> GAI; MS -> Loan; GAI -> Loan; SAT -> Degree;
  MS -> Experience;
}
factual {
  Gender = m; MS = mar; SAT = 1100; GAI = 65K; Degree = PhD; Experience = 5y;
}
intervene MS = div;
target Loan = yes;
factual_prob 0.60;
"""


def test_parse_case_paper_example():
    case = parse_case(CASE_TEXT)
    assert len(case.graph.edges) == 10
    assert len(case.factual.attributions) == 6
    assert case.intervention == Intervention("MS", Atom("div"))
    assert (case.target, case.target_value) == ("Loan", Atom("yes"))
    assert case.factual_prob == Fraction(3, 5)
    assert case.candidate_override is None


def test_parse_case_sum_and_complement():
    case = parse_case(
        """
        graph { MS -> Loan; Etn -> Loan; }
        factual { MS = married + divorced; Etn = !white; }
        intervene Etn = white;
        target Loan = yes;
        """
    )
    values = {a.var: a.value for a in case.factual}
    assert values["MS"] == Sum((Atom("married"), Atom("divorced")))
    assert values["Etn"] == Complement(Atom("white"))


def test_parse_case_candidate_block():
    case = parse_case(
        """
        graph { A -> T; B -> T; }
        factual { A = x; B = y; }
        intervene A = z;
        target T = yes;
        candidate { A = z; B = y; }
        factual_prob 0.5;
        """
    )
    assert case.candidate_override == DataPoint(
        (Attribution("A", Atom("z")), Attribution("B", Atom("y")))
    )


def test_parse_case_cycle_error_has_second_edge_span():
    text = "graph { A -> B;\nB -> A; }\nfactual { }\nintervene A = x;\ntarget B = y;\n"
    with pytest.raises(ParseError) as exc:
        parse_case(text)
    assert "cycle" in exc.value.found
    assert exc.value.span.line == 2 and exc.value.span.column == 1


def test_parse_case_semantic_errors_have_spans():
    bad = [
        # duplicate factual variable
        "graph { A -> B; }\nfactual { A = x; A = y; }\nintervene A = z;\ntarget B = w;",
        # unknown intervention variable
        "graph { A -> B; }\nfactual { A = x; }\nintervene C = z;\ntarget B = w;",
        # target inside the factual data point
        "graph { A -> B; }\nfactual { A = x; B = w; }\nintervene A = z;\ntarget B = w;",
        # target equals intervention variable
        "graph { A -> B; }\nfactual { }\nintervene B = z;\ntarget B = w;",
        # target inside the candidate
        "graph { A -> B; }\nfactual { A = x; }\nintervene A = z;\ntarget B = w;\n"
        "candidate { A = z; B = w; }",
    ]
    for text in bad:
        with pytest.raises(ParseError) as exc:
            parse_case(text)
        assert exc.value.span.line >= 1 and exc.value.span.column >= 1


@pytest.mark.parametrize(
    "text, line, column",
    [
        pytest.param(
            "graph { A -> B; }\nfactual { A = x; A = y; }\nintervene A = z;\ntarget B = w;",
            2, 18, id="duplicate-factual-variable",
        ),
        pytest.param(
            "graph { A -> B; }\nfactual { A = x; }\nintervene A = z;\ntarget B = w;\n"
            "candidate { A = z; A = y; }",
            5, 20, id="duplicate-candidate-variable",
        ),
        pytest.param(
            "graph { A -> B; }\nfactual { A = x; }\nintervene C = z;\ntarget B = w;",
            3, 11, id="unknown-intervention-variable",
        ),
        pytest.param(
            "graph { A -> B; }\nfactual { A = x; }\nintervene A = z;\ntarget B = w;\n"
            "candidate { A = z; B = w; }",
            5, 20, id="target-in-candidate",
        ),
    ],
)
def test_case_error_points_at_the_variable_s_latest_occurrence(text, line, column):
    with pytest.raises(ParseError) as exc:
        parse_case(text)
    assert (exc.value.span.line, exc.value.span.column) == (line, column)


def test_parse_error_spans_in_bounds():
    bad_inputs = [
        "graph { A -> ; }",
        "graph { A -> B }",
        "graph A -> B;",
        "|- T = @ 0.5",
        "A = x |- T = y @ 1.5",
        "A = x |- T = y @ 0.1234567",
        "A = $ |- T = y @ 0.5",
        "[A -> B] J(A=x) |- T = y @ 0.5",
        "A = x, |- T = y",
    ]
    for text in bad_inputs:
        with pytest.raises(ParseError) as exc:
            parse_judgment(text) if "|-" in text else parse_case(text)
        span = exc.value.span
        lines = text.split("\n")
        assert 1 <= span.line <= len(lines) + 1
        assert 1 <= span.column <= len(lines[min(span.line, len(lines)) - 1]) + 2


HEADER = "graph { A -> B; }\nfactual { A = x; }\n"


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_case, "graph { A = x; }", "1:11: expected ';', found '='"),
        (parse_case, "graph { A -> ; }", "1:14: expected an edge target, found ';'"),
        (parse_case, "graph { A -> B; }\nfactual { A -> B; }", "2:13: expected '=', found '->'"),
        (parse_case, HEADER + "intervene A = z + y;", "3:17: expected ';', found '+'"),
        (parse_case, HEADER + "intervene A = z;\ntarget B -> w;", "4:10: expected '=', found '->'"),
        (parse_judgment, "[A -> B] J(A=x) |- T = y @ 0.5", "1:10: expected 'I', found 'J'"),
        (
            parse_judgment,
            "[A -> B, ] I(A=x) |- T = y @ 0.5",
            "1:10: expected an edge, node or attribution, found ']'",
        ),
        (parse_judgment, "[A -> B] I(A=x + y) |- T = y @ 0.5", "1:16: expected ')', found '+'"),
        (parse_judgment, "A |- T = y @ 0.5", "1:3: expected '=', found '|-'"),
        (parse_judgment, "A = x T = y @ 0.5", "1:7: expected '|-', found 'T'"),
        (parse_judgment, "A = x |- T -> y @ 0.5", "1:12: expected '=', found '->'"),
        (parse_judgment_db, "A = x |- T = y @ 0.5", "1:21: expected ';', found end of input"),
        (
            parse_judgment,
            "A = x |- B = y @ 1/2.0",
            "1:20: expected an integer rational, found '2.0'",
        ),
        (
            parse_judgment,
            "A = x |- B = y @ 1.5/2",
            "1:18: expected an integer rational, found '1.5'",
        ),
        (
            parse_judgment,
            "[A -> B, B -> A] I(A=x) |- C = y @ 1",
            "1:1: expected a well-formed intervention expression, found cycle: A -> B -> A",
        ),
        (
            parse_judgment,
            "B -> C,\n  [A = x, A = y] I(A=z) |- C = y @ 1",
            "2:3: expected a well-formed intervention expression, "
            "found duplicate variable in data point: A",
        ),
        (
            parse_judgment,
            "A = x |- A = y @ 1",
            "1:1: expected a well-formed judgment, found target A attributed in its own context",
        ),
        (
            parse_judgment,
            "[A] I(A=x), [B] I(B=y) |- C = y @ 1",
            "1:1: expected a well-formed judgment, "
            "found a context may hold at most one intervention expression",
        ),
        (  # CRLF line ends, a tab and a form feed: only a newline starts a line
            parse_case,
            "graph { A -> B; }\r\nfactual {\r\n\tA = x;\x0c A = y; }\r\n"
            "intervene A = b;\r\ntarget B = y;\r\n",
            "3:10: expected a well-formed case, found duplicate variable in data point: A",
        ),
        (parse_case, "graph { A -> B; }\n\n  $", "3:3: expected a token, found '$'"),
        (
            parse_judgment_db,
            "A = x |- T = y @ 0.5\n# end",
            "2:6: expected ';', found end of input",
        ),
        (
            parse_case,
            HEADER + "intervene A = z;\ntarget B = y;\njunk;",
            "5:1: expected end of case file, found 'junk'",
        ),
        (
            parse_case,
            HEADER + "intervene A = z;\ntarget B = y;\nfactual_prob abc;",
            "5:14: expected a decimal probability, found 'abc'",
        ),
        (parse_judgment, "A = x |- B = y @ 3/2", "1:18: expected a probability in [0, 1], found '3/2'"),
    ],
)
def test_each_production_reports_what_it_expected(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_probability_literals():
    assert parse_probability_literal("0.60") == Fraction(3, 5)
    assert parse_probability_literal("1") == 1
    assert parse_probability_literal("0") == 0
    assert parse_probability_literal("3/5") == Fraction(3, 5)
    with pytest.raises(ParseError):
        parse_probability_literal("0.1234567")  # more than 6 fractional digits
    with pytest.raises(ParseError):
        parse_probability_literal("1.5")
    with pytest.raises(ParseError):
        parse_probability_literal("7/5")


def test_render_probability():
    assert render_probability(Fraction(3, 5)) == "0.6"
    assert render_probability(Fraction(1)) == "1"
    assert render_probability(Fraction(0)) == "0"
    assert render_probability(Fraction(1, 3)) == "1/3"
    assert render_probability(Fraction(1, 8)) == "0.125"


def _valueterm(text):
    """A value term parsed as the value of an attribution."""
    return parse_context_item("X = " + text).attribution.value


def test_valueterm_round_trip():
    for text in ["a", "a + b", "!white", "!(a + b)", "(a + b) + c", "!!a", "a + !b + c"]:
        term = _valueterm(text)
        assert _valueterm(render_valueterm(term)) == term


def test_judgment_round_trip_example():
    text = (
        "[Gender -> MS, MS -> Loan, Gender = m, MS = mar] I(MS=div) "
        "|- Loan = yes @ 0.6"
    )
    j = parse_judgment(text)
    assert render_judgment(j) == text
    assert parse_judgment(render_judgment(j)) == j


def test_intervention_expression_lists_each_edgeless_variable_once():
    # C has no edge, and is both attributed and intervened on
    text = "[A -> B, C = x] I(C=z)"
    item = parse_context_item(text)
    assert item.expr.graph.nodes == {"A", "B", "C"}
    assert render_context_item(item) == text


def test_empty_context_judgment_round_trip():
    j = parse_judgment("|- t = b @ 1")
    assert j.context == ()
    assert render_judgment(j) == "|- t = b @ 1"


def test_duplicate_sum_member_rejected():
    with pytest.raises(ParseError):
        _valueterm("a + a")


def test_parse_case_or_graph():
    g = parse_case_or_graph("graph { A -> B; C; }")
    assert isinstance(g, CausalGraph)
    assert g.nodes == {"A", "B", "C"} and g.edges == {("A", "B")}
    case = parse_case_or_graph(CASE_TEXT)
    assert not isinstance(case, CausalGraph)


# ---------------------------------------------------------------------------
# Randomized round trips.


def random_valueterm(rng, depth=2):
    if depth == 0 or rng.random() < 0.5:
        return Atom(rng.choice(["a", "b", "c", "65K", "PhD"]))
    if rng.random() < 0.5:
        return Complement(random_valueterm(rng, depth - 1))
    members, seen = [], set()
    while len(members) < rng.randint(2, 3):
        m = random_valueterm(rng, depth - 1)
        if m not in seen:
            seen.add(m)
            members.append(m)
    return Sum(tuple(members))


def random_judgment(rng):
    names = [f"v{i}" for i in range(rng.randint(2, 6))]
    edges = {
        (names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, len(names))
        if rng.random() < 0.4
    }
    graph = CausalGraph(frozenset(names), frozenset(edges))
    dp_vars = [n for n in names if rng.random() < 0.5]
    datapoint = DataPoint(
        tuple(Attribution(v, random_valueterm(rng)) for v in dp_vars)
    )
    items = []
    if rng.random() < 0.7:
        expr = InterventionExpr(
            graph, datapoint, Intervention(rng.choice(names), Atom("z"))
        )
        items.append(InterventionItem(expr))
    for e in sorted(edges):
        if rng.random() < 0.5:
            items.append(EdgeItem(*e))
    for v in dp_vars:
        if rng.random() < 0.5:
            items.append(AttrItem(Attribution(v, random_valueterm(rng))))
    prob = Fraction(rng.randint(0, 997), 997)
    return Judgment(tuple(items), "T", random_valueterm(rng), prob)


def test_randomized_judgment_round_trips():
    rng = random.Random(424242)
    for _ in range(500):
        j = random_judgment(rng)
        text = render_judgment(j)
        assert parse_judgment(text) == j
        # rendering is canonical: a second round trip is byte-identical
        assert render_judgment(parse_judgment(text)) == text


def test_context_item_round_trips():
    rng = random.Random(5)
    for _ in range(100):
        j = random_judgment(rng)
        for item in j.context:
            assert parse_context_item(render_context_item(item)) == item


class _HalfOracle:
    def query(self, q):
        return Fraction(1, 2)


def _sparse_dag_proof(n: int):
    """Derive a proof on the ROADMAP's synthetic DAG: edges vi -> vj for j in
    i+1..i+5 at probability 0.6, the middle node intervened, the last node
    the target and every other node in the factual data point."""
    return derive_counterfactual(_sparse_dag_case(n), _HalfOracle())[1]


def _sparse_dag_case(n: int) -> Case:
    rng = random.Random(n)
    nodes = [f"v{i}" for i in range(n)]
    edges = {
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, min(i + 6, n))
        if rng.random() < 0.6
    }
    return Case(
        CausalGraph(frozenset(nodes), frozenset(edges)),
        DataPoint(tuple(Attribution(v, Atom("x")) for v in nodes[:-1])),
        Intervention(nodes[n // 2], Atom("y")),
        nodes[-1],
        Atom("yes"),
    )


def test_proof_bytes_per_step_stay_flat_as_the_graph_grows():
    per_step = {}
    for n in (30, 120):
        proof = _sparse_dag_proof(n)
        text = render_proof(proof)
        per_step[n] = len(text) / len(proof.steps)
        parsed = parse_proof(text)
        assert check_proof(parsed).ok
        assert parsed.conclusion() == proof.conclusion()
    assert per_step[120] <= 1.5 * per_step[30]


def test_proof_and_case_parsing_cost_a_fixed_number_of_tokenizer_passes(monkeypatch):
    # a derived proof is read in three passes whatever its size: the
    # assumption, the weakening item, and the conclusion after the `|-` that
    # follows that item; every other step names an item already read
    passes = []
    tokenize = dsl.tokenize
    monkeypatch.setattr(dsl, "tokenize", lambda text: passes.append(text) or tokenize(text))
    counts, seeded = {}, {}
    for n in (100, 400):
        case = _sparse_dag_case(n)
        text = render_proof(derive_counterfactual(case, _HalfOracle())[1])
        factual = " ".join(f"{a.var} = x;" for a in case.factual)
        case_text = graph_text(case.graph) + (
            f"factual {{ {factual} }}\nintervene v{n // 2} = y;\ntarget v{n - 1} = yes;\n"
        )
        passes.clear()
        assert parse_case(case_text) == case and len(passes) == 1
        passes.clear()
        assert render_proof(parse_proof(text)) == text
        counts[n] = len(passes)
        # nor is the conclusion's intervention expression read a second time
        doc = json.loads(text)
        once = len(doc["assumptions"][0]) + len(doc["steps"][0]["item"])
        assert once < sum(map(len, passes)) < once + 40
        # read against its case, the proof tokenizes neither text the case fixes:
        # only what follows the `|-` of the assumption and of the conclusion
        known = known_contexts(case)
        passes.clear()
        assert render_proof(parse_proof(text, known)) == text
        seeded[n] = len(passes)
        assert sum(map(len, passes)) < 80
    assert counts[100] == counts[400] <= 3
    assert seeded[100] == seeded[400] == 2


def _loan_proof() -> Proof:
    oracle = JudgmentDbOracle(parse_judgment_db((DATA / "loan.db").read_text()))
    return derive_counterfactual(parse_case((DATA / "loan.cfc").read_text()), oracle)[1]


def _with_steps(*steps) -> Proof:
    """The n=8 proof's assumption; then, if any are given, `steps` and that
    proof's last step. A missing item or premise is written `null`."""
    proof = _sparse_dag_proof(8)
    return Proof(proof.assumptions, (*steps, proof.steps[-1]) if steps else ())


PROOFS = {
    "loan": _loan_proof,
    "n=50": lambda: _sparse_dag_proof(50),
    "n=400": lambda: _sparse_dag_proof(400),
    "no-steps": lambda: _with_steps(),
    "no-item": lambda: _with_steps(ProofStep(RuleId.EDGE_CUT, None, 0, None)),
    "no-premise": lambda: _with_steps(ProofStep(RuleId.VALUE_CUT, None, None, None)),
}


@pytest.mark.parametrize("name", PROOFS)
def test_render_proof_writes_what_the_json_indenter_writes(name):
    proof = PROOFS[name]()
    assert render_proof(proof) == json.dumps(dsl.proof_to_dict(proof), indent=2) + "\n"


@pytest.mark.parametrize("n", [12, 50])
def test_a_proof_read_against_its_case_equals_the_proof_read_alone(n):
    case = _sparse_dag_case(n)
    text = render_proof(derive_counterfactual(case, _HalfOracle())[1])
    seeded = parse_proof(text, known_contexts(case))
    assert seeded == parse_proof(text) and render_proof(seeded) == text
    # the seeded items are the case's own objects, so replay finds their blocked set cached
    assert seeded.steps[0].item.expr is case.intervention_expr()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_proof_reads_back_as_itself_whichever_conclusions_it_records(seed):
    # a derived proof records only its certified conclusion, in memory as in
    # its file; one that records every conclusion writes and reads each back
    rng = random.Random(seed)
    g = CausalGraph(frozenset(), frozenset())
    while len(g.nodes) < 2:
        g = random_dag(rng) if seed % 2 else relabelled_dag(rng)
    target = rng.choice(sorted(g.nodes))
    others = sorted(g.nodes - {target})
    factual = DataPoint(
        tuple(Attribution(v, Atom(rng.choice("xyz"))) for v in others if rng.random() < 0.7)
    )
    case = Case(g, factual, Intervention(rng.choice(others), Atom("w")), target, Atom("yes"))
    proof = derive_counterfactual(case, _HalfOracle())[1]
    assert all(s.conclusion is None for s in proof.steps[:-1])
    steps = zip(proof.steps, replayed_conclusions(proof))
    full = Proof(proof.assumptions, tuple(dataclasses.replace(s, conclusion=c) for s, c in steps))
    for p in (proof, full):
        text = render_proof(p)
        assert parse_proof(text) == p
        assert parse_proof(text, known_contexts(case)) == p


def test_an_empty_known_context_lets_no_text_bring_a_context_of_its_own():
    doc = json.dumps({"assumptions": [" |- A = x |- T = yes @ 1"], "steps": []})
    with pytest.raises(dsl.ProofFormatError) as alone:
        parse_proof(doc)
    with pytest.raises(dsl.ProofFormatError) as seeded:
        parse_proof(doc, [()])
    assert str(seeded.value) == str(alone.value) == (
        "malformed proof document: 1:11: expected '@', found '|-'"
    )
