import random
import sys
import textwrap
from fractions import Fraction

import pytest

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
    value_matches,
)
from cfcheck.dsl import parse_judgment_db


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
    oracle = CsvFrequencyOracle.from_path(str(data_dir / "loans.csv"))
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


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-5"])
def test_external_command_rejects_bad_timeout_setting(monkeypatch, value):
    monkeypatch.setenv("CF_ORACLE_TIMEOUT_MS", value)
    with pytest.raises(OracleError, match="CF_ORACLE_TIMEOUT_MS"):
        ExternalCommandOracle(["true"])
