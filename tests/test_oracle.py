import functools
import random
import re
import shlex
import sys
import textwrap
import timeit
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cfcheck import (
    Atom,
    Attribution,
    Complement,
    ConflictingJudgments,
    CsvFrequencyOracle,
    DataPoint,
    ExternalCommandOracle,
    JudgmentDbOracle,
    NoMatchingJudgment,
    OracleError,
    OracleQuery,
    Sum,
    UndefinedProbability,
)
from cfcheck.cli import main
from cfcheck.dsl import parse_judgment_db
from conftest import brute_force_frequency
from spec import value_matches


def dp(*pairs):
    return DataPoint(tuple(Attribution(v, t) for v, t in pairs))


def query(attrs, target="Loan", value=Atom("yes")):
    return OracleQuery(dp(*attrs), target, value)


# ---------------------------------------------------------------------------
# CSV frequency oracle.

TEN_ROWS = textwrap.dedent(
    """\
    G,MS,Loan
    m,mar,yes
    m,mar,yes
    m,mar,yes
    m,mar,no
    m,mar,no
    m,mar,no
    f,sin,yes
    f,sin,no
    f,sin,no
    f,sin,no
    """
)


def test_csv_conditional_frequency():
    oracle = CsvFrequencyOracle.from_text(TEN_ROWS)
    # 6 rows match G=m and MS=mar; 3 of those have Loan=yes
    assert oracle.query(query([("G", Atom("m")), ("MS", Atom("mar"))])) == Fraction(1, 2)


def test_csv_marginal_on_empty_attributions():
    oracle = CsvFrequencyOracle.from_text(TEN_ROWS)
    assert oracle.query(query([])) == Fraction(2, 5)


def test_csv_zero_match_is_undefined():
    oracle = CsvFrequencyOracle.from_text(TEN_ROWS)
    with pytest.raises(UndefinedProbability):
        oracle.query(query([("G", Atom("x"))]))


def test_csv_unknown_column():
    oracle = CsvFrequencyOracle.from_text(TEN_ROWS)
    with pytest.raises(OracleError, match="unknown column"):
        oracle.query(query([("Nope", Atom("m"))]))


def test_csv_rejects_empty_cells():
    with pytest.raises(OracleError, match="empty cell"):
        CsvFrequencyOracle.from_text("A,B\nx,\n")


def test_csv_fixture_hand_counts(data_dir):
    oracle = CsvFrequencyOracle.from_text((data_dir / "loans.csv").read_text(encoding="utf-8"))
    assert oracle.query(query([("Gender", Atom("m"))])) == Fraction(1, 2)
    assert oracle.query(
        query([("MS", Sum((Atom("married"), Atom("divorced"))))])
    ) == Fraction(5, 12)
    assert oracle.query(query([("Etn", Complement(Atom("white")))])) == Fraction(3, 8)
    assert oracle.query(
        query([("Gender", Atom("f")), ("MS", Complement(Atom("single")))])
    ) == Fraction(1, 5)
    assert oracle.query(query([("GAI", Atom("65K"))])) == Fraction(5, 7)
    assert oracle.query(query([])) == Fraction(9, 20)


def test_csv_matches_brute_force_randomized():
    rng = random.Random(31337)
    tokens = ["a", "b", "c"]
    for _ in range(60):
        cols = [f"c{i}" for i in range(rng.randint(2, 5))]
        n = rng.randint(1, 50)
        rows = [{c: rng.choice(tokens) for c in cols} for _ in range(n)]
        text = ",".join(cols) + "\n" + "\n".join(
            ",".join(r[c] for c in cols) for r in rows
        )
        oracle = CsvFrequencyOracle.from_text(text)
        target = cols[-1]
        terms = [
            Atom(rng.choice(tokens)),
            Sum((Atom("a"), Atom("b"))),
            Complement(Atom(rng.choice(tokens))),
        ]
        attrs = [
            (c, rng.choice(terms)) for c in cols[:-1] if rng.random() < 0.5
        ]
        tv = rng.choice(terms)
        matching = [r for r in rows if all(value_matches(t, r[c]) for c, t in attrs)]
        hits = [r for r in matching if value_matches(tv, r[target])]
        q = query(attrs, target=target, value=tv)
        if not matching:
            with pytest.raises(UndefinedProbability):
                oracle.query(q)
        else:
            assert oracle.query(q) == Fraction(len(hits), len(matching))
        # frequencies are exact ratios in [0, 1]
        if matching:
            p = oracle.query(q)
            assert 0 <= p <= 1


def _sum(members):
    return Sum(tuple(members))


@functools.lru_cache(maxsize=None)
def value_terms(atoms: int):
    """Atoms `t0 .. t{atoms - 1}`, and sums and complements nested over them."""
    return st.recursive(
        st.integers(0, atoms - 1).map("t{}".format).map(Atom),
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=3, unique=True).map(_sum),
            inner.map(Complement),
        ),
        max_leaves=6,
    )


@st.composite
def tables_with_queries(draw):
    """CSV text of 0-300 rows, and queries over its columns.

    Column j holds `distinct_j` tokens `t0, t1, ...` in a shuffled order, so
    a column can need ids wider than one byte. Query atoms range a little
    past each column's tokens, and one query in ten or so names the unknown
    column `zz` as target or attribute.
    """
    n_rows = draw(st.integers(0, 300))
    distinct = draw(st.lists(st.integers(1, 300), min_size=1, max_size=4))
    columns = [f"c{j}" for j in range(len(distinct))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    cells = []
    for d in distinct:
        col = [f"t{i % d}" for i in range(n_rows)]
        rng.shuffle(col)
        cells.append(col)
    text = ",".join(columns) + "\n" + "".join(",".join(row) + "\n" for row in zip(*cells))
    atoms = dict(zip(columns, (d + 2 for d in distinct)))
    unknown = st.sampled_from([False] * 9 + [True])
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        target = "zz" if draw(unknown) else draw(st.sampled_from(columns))
        others = [c for c in columns if c != target]
        conditioned = draw(st.lists(st.sampled_from(others), unique=True, max_size=3)) if others else []
        if target != "zz" and draw(unknown):
            conditioned.append("zz")
        terms = [draw(value_terms(atoms.get(c, 3))) for c in [target] + conditioned]
        queries.append(OracleQuery(dp(*zip(conditioned, terms[1:])), target, terms[0]))
    return text, queries


def _wide_column_table():
    rows = "".join(f"t{i},t{i % 3},t{i % 7}\n" for i in range(300))
    at = lambda *ks: Sum(tuple(Atom(f"t{k}") for k in ks))
    return "c0,c1,c2\n" + rows, [
        OracleQuery(dp(("c0", at(5, 257, 299, 300))), "c1", Atom("t2")),
        OracleQuery(dp(("c0", Complement(at(0, 256, 270))), ("c2", Atom("t4"))), "c1", Atom("t0")),
        OracleQuery(dp(("c1", Atom("t1"))), "c0", Complement(Complement(Atom("t298")))),
    ]


@settings(max_examples=150, deadline=None)
@given(tables_with_queries())
@example(_wide_column_table())
@example(("c0,c1\n", [query([("c0", Atom("t0"))], target="c1", value=Atom("t0"))]))
def test_csv_matches_row_scan(table):
    text, queries = table
    oracle = CsvFrequencyOracle.from_text(text)
    for q in queries:
        try:
            expected = brute_force_frequency(text, q)
        except OracleError as e:
            with pytest.raises(type(e), match=f"^{re.escape(str(e))}$"):
                oracle.query(q)
        else:
            assert oracle.query(q) == expected


@pytest.mark.parametrize(
    "text, message",
    [
        ("A,B\nx,y\nx,b-d\nx\n", "CSV line 3: cell 'b-d' is not a plain token"),
        ("A,B\nx,y\n,y\nq,w,e\n", "CSV line 3: empty cell"),
        ("A,B\n\nx,b-d\n,\n", "CSV line 3: cell 'b-d' is not a plain token"),
        ("A,B\nx,\nb-d,y\n", "CSV line 2: empty cell"),
        pytest.param(
            "A,B\nx,y\nx," + "y" * 131_073 + "\n",
            "CSV line 3: field larger than field limit (131072)",
            id="cell-over-field-limit",
        ),
        ("", "empty CSV: missing header"),
        ("A,A\nx,y\n", "invalid CSV header: ['A', 'A']"),
        ("A,\nx,y\n", "invalid CSV header: ['A', '']"),
        ("A,B\nx,y\nx,y,z\n", "CSV line 3: expected 2 cells, got 3"),
        ("A,B\nx,y\nx\n", "CSV line 3: expected 2 cells, got 1"),
    ],
)
def test_csv_reports_first_faulty_line(text, message):
    with pytest.raises(OracleError) as e:
        CsvFrequencyOracle.from_text(text)
    assert str(e.value) == message


def test_csv_load_retains_little_memory():
    # 20k rows, 11 columns, one of them unique per row.
    n = 20_000
    text = "Id," + ",".join(f"A{j}" for j in range(10)) + "\n" + "".join(
        f"r{i}," + ",".join(f"v{i % (j + 2)}" for j in range(10)) + "\n" for i in range(n)
    )
    tracemalloc.start()
    try:
        oracle = CsvFrequencyOracle.from_text(text)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 8 * 2**20
    assert oracle.query(query([("A0", Atom("v0"))], target="Id", value=Atom("r7"))) == 0
    assert oracle.query(query([("Id", Atom("r7"))], target="A1", value=Atom("v1"))) == 1


@pytest.mark.parametrize("complement", [False, True], ids=["atom", "complement"])
def test_csv_query_cost_does_not_grow_with_a_column_s_distinct_tokens(complement):
    n = 20_000
    text = "Id,C,Loan\n" + "".join(f"r{i},c{i % 3},{'yes' if i % 2 else 'no'}\n" for i in range(n))
    oracle = CsvFrequencyOracle.from_text(text)

    def best_time(column, token):
        term = Complement(Atom(token)) if complement else Atom(token)
        q = query([(column, term)])
        return min(timeit.repeat(lambda: oracle.query(q), number=20, repeat=5))

    # a ratio of two timings on one table, so it holds on a slow host too
    assert best_time("Id", "r7") < 10 * best_time("C", "c1")


# ---------------------------------------------------------------------------
# Judgment database oracle.


def test_db_lookup_and_permutation_invariance(data_dir):
    judgments = parse_judgment_db((data_dir / "loan.db").read_text())
    sigma = [
        ("Gender", Atom("m")),
        ("MS", Atom("div")),
        ("SAT", Atom("1100")),
        ("Degree", Atom("PhD")),
    ]
    expected = Fraction(3, 5)
    for db in (JudgmentDbOracle(judgments), JudgmentDbOracle(judgments[::-1])):
        assert db.query(query(sigma)) == expected
        assert db.query(query(sigma[::-1])) == expected


def test_db_no_match(data_dir):
    db = JudgmentDbOracle(parse_judgment_db((data_dir / "loan.db").read_text()))
    with pytest.raises(NoMatchingJudgment):
        db.query(query([("Gender", Atom("f"))]))


def test_db_conflicting_entries():
    db = JudgmentDbOracle(
        parse_judgment_db(
            "A = x |- T = yes @ 0.6;\nA = x |- T = yes @ 0.7;"
        )
    )
    with pytest.raises(ConflictingJudgments):
        db.query(query([("A", Atom("x"))], target="T"))


def test_db_duplicate_identical_entries_ok():
    db = JudgmentDbOracle(
        parse_judgment_db("A = x |- T = yes @ 0.6;\nA = x |- T = yes @ 0.6;")
    )
    assert db.query(query([("A", Atom("x"))], target="T")) == Fraction(3, 5)


def test_db_rejects_non_attribution_contexts():
    with pytest.raises(OracleError):
        JudgmentDbOracle(parse_judgment_db("A -> B, A = x |- T = yes @ 0.6;"))


# ---------------------------------------------------------------------------
# External command oracle.


def _stub(tmp_path, body):
    path = tmp_path / "stub.py"
    path.write_text(body)
    return [sys.executable, str(path)]


def test_external_command_round_trip(tmp_path):
    argv = _stub(
        tmp_path,
        textwrap.dedent(
            """\
            import json, sys
            request = json.loads(sys.stdin.readline())
            assert request["target"] == "Loan"
            assert {"var": "MS", "value": "div"} in request["attributions"]
            print(json.dumps({"probability": "0.60"}))
            """
        ),
    )
    oracle = ExternalCommandOracle(argv)
    assert oracle.query(query([("MS", Atom("div"))])) == Fraction(3, 5)


def test_external_command_out_of_range(tmp_path):
    argv = _stub(tmp_path, 'print(\'{"probability": "1.2"}\')')
    with pytest.raises(OracleError):
        ExternalCommandOracle(argv).query(query([]))


def test_external_command_failure_carries_diagnostics(tmp_path):
    argv = _stub(tmp_path, 'import sys; print("boom", file=sys.stderr); sys.exit(3)')
    with pytest.raises(OracleError, match="boom"):
        ExternalCommandOracle(argv).query(query([]))


def test_external_command_malformed_response(tmp_path):
    argv = _stub(tmp_path, 'print("not json")')
    with pytest.raises(OracleError, match="malformed"):
        ExternalCommandOracle(argv).query(query([]))


@pytest.mark.parametrize(
    "spec, code, err",
    [
        pytest.param(lambda tmp: "csv", 3,
                     "bad oracle spec: 'csv' (want csv:PATH, db:PATH or cmd:COMMAND)\n", id="csv"),
        pytest.param(lambda tmp: "cmd: ", 3,
                     "cannot load oracle 'cmd: ': oracle error: empty oracle command\n",
                     id="cmd-blank"),
        pytest.param(lambda tmp: "cmd:" + shlex.join(_stub(tmp, "")), 4,  # exits 0, prints nothing
                     "{case}: oracle error: oracle command produced no response\n", id="silent"),
        pytest.param(lambda tmp: "cmd:" + shlex.quote(str(tmp / "missing")), 4,
                     "{case}: oracle error: oracle command failed: "
                     "[Errno 2] No such file or directory: '{tmp}/missing'\n", id="missing"),
    ],
)
def test_oracle_spec_errors_reach_the_command_line(capsys, data_dir, tmp_path, spec, code, err):
    case = str(data_dir / "loan.cfc")
    assert main(["check", case, "--oracle", spec(tmp_path)]) == code
    assert capsys.readouterr() == ("", err.format(case=case, tmp=tmp_path))


def test_a_query_may_not_attribute_its_target():
    with pytest.raises(OracleError) as exc:
        query([("Loan", Atom("yes"))])
    assert str(exc.value) == "target Loan occurs among the query attributions"


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-5"])
def test_external_command_rejects_bad_timeout_setting(monkeypatch, value):
    monkeypatch.setenv("CF_ORACLE_TIMEOUT_MS", value)
    with pytest.raises(OracleError, match="CF_ORACLE_TIMEOUT_MS"):
        ExternalCommandOracle(["true"])
