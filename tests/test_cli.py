import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cfcheck import cli
from cfcheck.cli import main
from conftest import DATA


@pytest.fixture
def loan_cfc(data_dir):
    return str(data_dir / "loan.cfc")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_fair(capsys, loan_cfc, data_dir):
    code, out, _ = run(capsys, "check", loan_cfc, "--oracle", f"db:{data_dir / 'loan.db'}")
    assert code == 0
    assert "FAIR" in out and "p=0.6" in out and "q=0.6" in out and "|p-q|=0" in out


def test_check_unfair(capsys, loan_cfc, data_dir):
    code, out, _ = run(
        capsys, "check", loan_cfc, "--oracle", f"db:{data_dir / 'loan_unfair.db'}"
    )
    assert code == 1
    assert "UNFAIR" in out and "|p-q|=0.1" in out


def test_check_epsilon_boundary_inclusive(capsys, loan_cfc, data_dir):
    code, out, _ = run(
        capsys,
        "check",
        loan_cfc,
        "--oracle",
        f"db:{data_dir / 'loan_unfair.db'}",
        "--epsilon",
        "0.10",
    )
    assert code == 0 and "FAIR" in out


def test_check_json_report(capsys, loan_cfc, data_dir):
    code, out, _ = run(
        capsys,
        "check",
        loan_cfc,
        "--oracle",
        f"db:{data_dir / 'loan.db'}",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["fair"] is True
    for key in ("p", "q", "difference", "epsilon", "counterfactual", "proof", "rule_counts"):
        assert key in doc
    assert doc["rule_counts"] == {
        "weakening": 1,
        "intervention-cut": 1,
        "edge-cut": 9,
        "value-cut": 3,
    }
    assert "I(MS=div)" in doc["counterfactual"]


def test_check_parse_error_exit_3(capsys, tmp_path, data_dir):
    bad = tmp_path / "bad.cfc"
    bad.write_text("graph { A -> ; }")
    code, _, err = run(capsys, "check", str(bad), "--oracle", f"db:{data_dir / 'loan.db'}")
    assert code == 3 and "parse error" in err


def test_check_oracle_error_exit_4(capsys, loan_cfc, tmp_path):
    empty_db = tmp_path / "empty.db"
    empty_db.write_text("")
    code, _, err = run(capsys, "check", loan_cfc, "--oracle", f"db:{empty_db}")
    assert code == 4 and "oracle error" in err


def test_check_bad_oracle_spec_exit_3(capsys, loan_cfc):
    code, _, err = run(capsys, "check", loan_cfc, "--oracle", "nope")
    assert code == 3


def test_check_candidate_rejected_exit_2(capsys, tmp_path, data_dir):
    case = tmp_path / "override.cfc"
    case.write_text(
        (data_dir / "loan.cfc").read_text().replace(
            "factual_prob 0.60;",
            "candidate { MS = div; GAI = 65K; }\nfactual_prob 0.60;",
        )
    )
    db = tmp_path / "override.db"
    db.write_text("MS = div, GAI = 65K |- Loan = yes @ 0.60;")
    code, _, err = run(capsys, "check", str(case), "--oracle", f"db:{db}")
    assert code == 2 and "not a counterfactual" in err


def test_cycle_report_does_not_depend_on_the_hash_seed(tmp_path, data_dir):
    case = tmp_path / "cyclic.cfc"
    case.write_text(
        (data_dir / "loan.cfc").read_text().replace(
            "  SAT -> Degree;\n  MS -> Experience;\n", "  GAI -> Experience;\n"
        )
    )
    src = str(Path(cli.__file__).parents[1])
    runs = [
        subprocess.run(
            [sys.executable, "-c", "from cfcheck.cli import entry; entry()", "check", str(case),
             "--oracle", f"db:{data_dir / 'loan.db'}"],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        for seed in ("0", "1")
    ]
    assert [r.returncode for r in runs] == [3, 3]
    assert "cycle: " in runs[0].stderr and runs[0].stderr == runs[1].stderr


def test_check_batch_jobs(capsys, loan_cfc, data_dir):
    code, out, _ = run(
        capsys,
        "check",
        loan_cfc,
        loan_cfc,
        "--oracle",
        f"db:{data_dir / 'loan.db'}",
        "--jobs",
        "2",
    )
    assert code == 0
    assert out.count("FAIR") >= 2


def test_derive_and_verify_proof_round_trip(capsys, loan_cfc, data_dir, tmp_path):
    proof_path = tmp_path / "loan.proof.json"
    code, out, _ = run(
        capsys,
        "derive",
        loan_cfc,
        "--oracle",
        f"db:{data_dir / 'loan.db'}",
        "--emit-proof",
        str(proof_path),
    )
    assert code == 0
    assert "I(MS=div)" in out and "|- Loan = yes @ 0.6" in out
    doc = json.loads(proof_path.read_text())
    assert len(doc["steps"]) == 14

    code, out, _ = run(capsys, "verify-proof", str(proof_path), loan_cfc)
    assert code == 0 and "OK" in out


def test_verify_proof_rejects_probability_edit(capsys, loan_cfc, data_dir, tmp_path):
    proof_path = tmp_path / "loan.proof.json"
    run(capsys, "derive", loan_cfc, "--oracle", f"db:{data_dir / 'loan.db'}",
        "--emit-proof", str(proof_path))
    doc = json.loads(proof_path.read_text())
    doc["steps"][-1]["conclusion"] = doc["steps"][-1]["conclusion"].replace("@ 0.6", "@ 0.9")
    proof_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify-proof", str(proof_path), loan_cfc)
    assert code == 1 and "conclusion-mismatch" in err


def test_verify_proof_rejects_other_case(capsys, loan_cfc, data_dir, tmp_path):
    proof_path = tmp_path / "loan.proof.json"
    run(capsys, "derive", loan_cfc, "--oracle", f"db:{data_dir / 'loan.db'}",
        "--emit-proof", str(proof_path))
    other = tmp_path / "other.cfc"
    other.write_text(
        (data_dir / "loan.cfc").read_text().replace("intervene MS = div;", "intervene MS = sin;")
    )
    code, _, err = run(capsys, "verify-proof", str(proof_path), str(other))
    assert code == 1 and "FAIL" in err


def test_derive_unwritable_proof_path(capsys, loan_cfc, data_dir, tmp_path):
    code, _, err = run(
        capsys,
        "derive",
        loan_cfc,
        "--oracle",
        f"db:{data_dir / 'loan.db'}",
        "--emit-proof",
        str(tmp_path / "no" / "such" / "dir" / "p.json"),
    )
    assert code == 3 and "cannot write proof" in err


def test_closure_of_variable(capsys, loan_cfc):
    code, out, _ = run(capsys, "closure", loan_cfc, "--of", "MS")
    assert code == 0
    assert set(out.strip().split(", ")) == {"MS", "Experience", "GAI", "Loan"}


def test_closure_unknown_variable(capsys, loan_cfc):
    code, _, err = run(capsys, "closure", loan_cfc, "--of", "Nope")
    assert code == 3 and "unknown variable" in err


def test_closure_full_listing(capsys, loan_cfc):
    code, out, _ = run(capsys, "closure", loan_cfc)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 25
    assert "MS -> Loan via {Experience, GAI, Loan}" in lines
    assert "Loan -> Loan via {Loan}" in lines
    pairs = [tuple(line.split(" via ")[0].split(" -> ")) for line in lines]
    assert pairs == sorted(pairs)


def test_closure_edgeless_graph(capsys, tmp_path):
    path = tmp_path / "bare.graph"
    path.write_text("graph { A; B; }")
    code, out, _ = run(capsys, "closure", str(path))
    assert code == 0
    assert sorted(out.strip().splitlines()) == ["A -> A via {A}", "B -> B via {B}"]


def test_check_external_command_oracle(capsys, loan_cfc, tmp_path):
    stub = tmp_path / "oracle.py"
    stub.write_text('print(\'{"probability": "0.60"}\')')
    import sys

    code, out, _ = run(
        capsys, "check", loan_cfc, "--oracle", f"cmd:{sys.executable} {stub}"
    )
    assert code == 0 and "FAIR" in out


@pytest.fixture
def loan_proof_doc(capsys, loan_cfc, data_dir, tmp_path):
    proof_path = tmp_path / "loan.proof.json"
    run(capsys, "derive", loan_cfc, "--oracle", f"db:{data_dir / 'loan.db'}",
        "--emit-proof", str(proof_path))
    return json.loads(proof_path.read_text())


@pytest.mark.parametrize("prob", ["0.6", "0.01"])
def test_verify_proof_rejects_zero_step_proof(capsys, loan_cfc, loan_proof_doc, tmp_path, prob):
    # the counterfactual judgment assumed outright, with no weakening step
    conclusion = loan_proof_doc["steps"][-1]["conclusion"].replace("@ 0.6", f"@ {prob}")
    proof_path = tmp_path / "zero.proof.json"
    proof_path.write_text(json.dumps({"assumptions": [conclusion], "steps": []}))
    code, out, err = run(capsys, "verify-proof", str(proof_path), loan_cfc)
    assert code == 1 and "OK" not in out
    assert "FAIL" in err and "intervention expression" in err


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda doc: doc.update(assumptions=[], steps=[]), id="no-assumptions"),
        pytest.param(lambda doc: doc["steps"][1].update(premise="x"), id="premise-str"),
        pytest.param(lambda doc: doc["steps"][1].update(premise=1.5), id="premise-float"),
        pytest.param(lambda doc: doc["steps"][1].update(rule="cut"), id="rule-cut"),
        pytest.param(
            lambda doc: doc["steps"][0].update(rule="intervention-axiom"), id="rule-axiom"
        ),
        pytest.param(lambda doc: doc["steps"][-1].pop("conclusion"), id="no-final-conclusion"),
    ],
)
def test_verify_proof_malformed_document_exit_3(capsys, loan_cfc, loan_proof_doc, tmp_path, edit):
    edit(loan_proof_doc)
    proof_path = tmp_path / "bad.proof.json"
    proof_path.write_text(json.dumps(loan_proof_doc))
    code, _, err = run(capsys, "verify-proof", str(proof_path), loan_cfc)
    assert code == 3 and "parse error" in err and "malformed proof document" in err


def _assert_parse_error_with_span(result):
    code, _, err = result
    assert code == 3 and "parse error" in err
    assert re.search(r"\d+:\d+: expected a token, found '.'", err)


@pytest.mark.parametrize("command", ["verify-proof", "closure"])
def test_non_ascii_value_in_case_is_parse_error(
    capsys, data_dir, loan_proof_doc, tmp_path, command
):
    case = tmp_path / "accent.cfc"
    case.write_text((data_dir / "loan.cfc").read_text().replace("Gender = m;", "Gender = mé;"))
    proof_path = tmp_path / "loan.proof.json"
    proof_path.write_text(json.dumps(loan_proof_doc))
    argv = [str(proof_path), str(case)] if command == "verify-proof" else [str(case)]
    _assert_parse_error_with_span(run(capsys, command, *argv))


def test_non_ascii_value_in_judgment_db_is_parse_error(capsys, loan_cfc, data_dir, tmp_path):
    db = tmp_path / "accent.db"
    db.write_text((data_dir / "loan.db").read_text().replace("Loan = yes", "Loan = yés"))
    _assert_parse_error_with_span(run(capsys, "check", loan_cfc, "--oracle", f"db:{db}"))


def test_non_ascii_digit_epsilon_is_parse_error(capsys, loan_cfc, data_dir):
    _assert_parse_error_with_span(
        run(capsys, "check", loan_cfc, "--oracle", f"db:{data_dir / 'loan.db'}",
            "--epsilon", "²")
    )


def test_epsilon_with_trailing_input_expects_end_of_probability(capsys, loan_cfc, data_dir):
    code, _, err = run(capsys, "check", loan_cfc, "--oracle", f"db:{data_dir / 'loan.db'}",
                       "--epsilon", "0.5 0.3")
    assert code == 3
    assert "expected end of probability, found '0.3'" in err


def test_non_ascii_digit_factual_prob_is_parse_error(capsys, data_dir, tmp_path):
    case = tmp_path / "superscript.cfc"
    case.write_text(
        (data_dir / "loan.cfc").read_text().replace("factual_prob 0.60;", "factual_prob ²;")
    )
    _assert_parse_error_with_span(
        run(capsys, "check", str(case), "--oracle", f"db:{data_dir / 'loan.db'}")
    )


def test_non_numeric_oracle_timeout_exit_3(capsys, loan_cfc, monkeypatch):
    monkeypatch.setenv("CF_ORACLE_TIMEOUT_MS", "abc")
    code, _, err = run(capsys, "check", loan_cfc, "--oracle", "cmd:true")
    assert code == 3 and "CF_ORACLE_TIMEOUT_MS" in err


def test_closure_of_long_chain(capsys, tmp_path):
    # a causal path longer than the interpreter's recursion limit
    n = 3000
    path = tmp_path / "chain.graph"
    path.write_text("graph {\n" + "".join(f"v{i} -> v{i + 1};\n" for i in range(n)) + "}\n")
    code, out, _ = run(capsys, "closure", str(path), "--of", f"v{n - 1}")
    assert code == 0 and out.strip() == f"v{n - 1}, v{n}"


def test_proof_records_only_the_final_conclusion(loan_proof_doc):
    steps = loan_proof_doc["steps"]
    assert all(set(step) == {"rule", "item", "premise"} for step in steps[:-1])
    assert set(steps[-1]) == {"rule", "item", "premise", "conclusion"}


def test_verify_proof_reads_proofs_recording_every_conclusion(
    capsys, loan_cfc, data_dir, loan_proof_doc, tmp_path
):
    from cfcheck.dsl import parse_case, parse_judgment_db, render_judgment
    from cfcheck.engine import derive_counterfactual
    from cfcheck.oracle import JudgmentDbOracle

    case = parse_case((data_dir / "loan.cfc").read_text())
    oracle = JudgmentDbOracle(parse_judgment_db((data_dir / "loan.db").read_text()))
    _, proof = derive_counterfactual(case, oracle)
    for raw, step in zip(loan_proof_doc["steps"], proof.steps):
        raw["conclusion"] = render_judgment(step.conclusion)
    proof_path = tmp_path / "full.proof.json"
    proof_path.write_text(json.dumps(loan_proof_doc))
    code, out, _ = run(capsys, "verify-proof", str(proof_path), loan_cfc)
    assert code == 0 and out.strip() == "OK: 14 steps replayed"

    step = loan_proof_doc["steps"][5]
    step["conclusion"] = step["conclusion"].replace("@ 0.6", "@ 0.9")
    proof_path.write_text(json.dumps(loan_proof_doc))
    code, out, err = run(capsys, "verify-proof", str(proof_path), loan_cfc)
    assert code == 1 and "OK" not in out
    assert "FAIL at step 5: conclusion-mismatch" in err


def _nested(kind, depth):
    return "!" * depth + "m" if kind == "!" else "(" * depth + "m" + ")" * depth


@pytest.mark.parametrize("kind", ["!", "("])
def test_deeply_nested_value_term_in_case_is_parse_error(capsys, data_dir, tmp_path, kind):
    case = tmp_path / "deep.cfc"
    text = (data_dir / "loan.cfc").read_text()
    case.write_text(text.replace("Gender = m;", f"Gender = {_nested(kind, 3000)};"))
    code, _, err = run(capsys, "closure", str(case))
    assert code == 3 and "parse error" in err
    assert re.search(rf"\d+:\d+: expected at most \d+ nested '!' and '\(', found '\{kind}'", err)

    case.write_text(text.replace("Gender = m;", f"Gender = {_nested(kind, 100)};"))
    code, _, _ = run(capsys, "closure", str(case), "--of", "MS")
    assert code == 0


def test_deeply_nested_value_term_in_judgment_db_is_parse_error(
    capsys, loan_cfc, data_dir, tmp_path
):
    db = tmp_path / "deep.db"
    deep = _nested("!", 3000)
    db.write_text((data_dir / "loan.db").read_text().replace("Gender = m,", f"Gender = {deep},"))
    code, out, err = run(capsys, "check", loan_cfc, "--oracle", f"db:{db}")
    assert code == 3 and out == "" and "parse error" in err and "nested" in err


def test_check_batch_prints_in_argument_order(capsys, data_dir, tmp_path):
    text = (data_dir / "loan.cfc").read_text()
    fair_a, bad, rejected, fair_b = (tmp_path / f"{name}.cfc" for name in "abcd")
    fair_a.write_text(text)
    bad.write_text("graph { A -> ; }")
    rejected.write_text(
        text.replace(
            "factual_prob 0.60;", "candidate { MS = div; GAI = 65K; }\nfactual_prob 0.60;"
        )
    )
    fair_b.write_text(text)
    db = tmp_path / "both.db"
    db.write_text(
        (data_dir / "loan.db").read_text() + "MS = div, GAI = 65K |- Loan = yes @ 0.60;\n"
    )
    paths = [str(p) for p in (fair_a, bad, rejected, fair_b)]
    code, out, err = run(capsys, "check", *paths, "--oracle", f"db:{db}", "--jobs", "3")
    assert code == 3
    out_lines = out.splitlines()
    assert len(out_lines) == 6
    assert all(line.startswith(f"{paths[0]}: ") for line in out_lines[:3])
    assert all(line.startswith(f"{paths[3]}: ") for line in out_lines[3:])
    assert out_lines[0].endswith("FAIR p=0.6 q=0.6 |p-q|=0 epsilon=0")
    err_lines = err.splitlines()
    assert len(err_lines) == 2
    assert err_lines[0].startswith(f"{paths[1]}: parse error: ")
    assert err_lines[1].startswith(f"{paths[2]}: candidate is not a counterfactual")


def test_check_json_batch_is_one_object_per_line(capsys, loan_cfc, data_dir, tmp_path):
    bad = tmp_path / "bad.cfc"
    bad.write_text("graph { A -> ; }")
    paths = [loan_cfc, str(bad), loan_cfc]
    code, out, _ = run(
        capsys, "check", "--format", "json", *paths, "--oracle", f"db:{data_dir / 'loan.db'}"
    )
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 2
    assert [json.loads(line)["case"] for line in lines] == [paths[0], paths[2]]


def test_verify_proof_rejects_edge_cut_outside_factual_graph(
    capsys, loan_cfc, loan_proof_doc, tmp_path
):
    # the assumption carries SAT -> Loan, an edge the factual graph lacks
    loan_proof_doc["assumptions"][0] = "SAT -> Loan, " + loan_proof_doc["assumptions"][0]
    for step in loan_proof_doc["steps"][1:]:
        step["premise"] += 1
    loan_proof_doc["steps"].insert(1, {"rule": "edge-cut", "item": "SAT -> Loan", "premise": 1})
    proof_path = tmp_path / "spurious.proof.json"
    proof_path.write_text(json.dumps(loan_proof_doc))
    code, out, err = run(capsys, "verify-proof", str(proof_path), loan_cfc)
    assert code == 1 and "OK" not in out
    assert "FAIL at step 1: edge-not-in-factual-graph" in err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["check", "LOAN"], id="missing-oracle"),
        pytest.param(["check", "LOAN", "--oracle", "DB", "--lenient-edges"], id="lenient-edges"),
        pytest.param(["derive", "LOAN", "--oracle", "DB", "--bogus"], id="bogus"),
        pytest.param(["check", "LOAN", "--oracle", "DB", "--jobs", "x"], id="jobs-x"),
    ],
)
def test_usage_errors_exit_3(capsys, loan_cfc, data_dir, argv):
    subst = {"LOAN": loan_cfc, "DB": f"db:{data_dir / 'loan.db'}"}
    with pytest.raises(SystemExit) as exc:
        main([subst.get(a, a) for a in argv])
    assert exc.value.code == 3
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0 and "--oracle" in capsys.readouterr().out


UNDECODABLE = b"\xff\xfe not UTF-8\n"


@pytest.mark.parametrize("kind", ["case", "proof", "csv", "db"])
def test_undecodable_input_file_exit_3(capsys, loan_cfc, data_dir, loan_proof_doc, tmp_path, kind):
    bad = tmp_path / f"bad.{kind}"
    bad.write_bytes(UNDECODABLE)
    db = f"db:{data_dir / 'loan.db'}"
    argv = {
        "case": ["check", str(bad), "--oracle", db],
        "proof": ["verify-proof", str(bad), loan_cfc],
        "csv": ["check", loan_cfc, "--oracle", f"csv:{bad}"],
        "db": ["check", loan_cfc, "--oracle", f"db:{bad}"],
    }[kind]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert f"{str(bad)!r} is not UTF-8 text" in err


def test_check_batch_reports_only_the_undecodable_file(capsys, loan_cfc, data_dir, tmp_path):
    bad = tmp_path / "bad.cfc"
    bad.write_bytes(UNDECODABLE)
    paths = [loan_cfc, str(bad), loan_cfc]
    code, out, err = run(capsys, "check", *paths, "--oracle", f"db:{data_dir / 'loan.db'}")
    assert code == 3
    assert [line.split(": ")[0] for line in out.splitlines()] == [loan_cfc] * 3 + [loan_cfc] * 3
    assert err.splitlines() == [f"{str(bad)!r} is not UTF-8 text: byte 0: invalid start byte"]


def test_check_batch_names_a_missing_file_once(capsys, loan_cfc, data_dir, tmp_path):
    missing = str(tmp_path / "missing.cfc")
    paths = [loan_cfc, missing, loan_cfc]
    code, out, err = run(capsys, "check", *paths, "--oracle", f"db:{data_dir / 'loan.db'}")
    assert code == 3
    assert [line.split(": ")[0] for line in out.splitlines()] == [loan_cfc] * 6
    err_lines = err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].count("missing.cfc") == 1


@pytest.mark.parametrize(
    "value, expected",
    [
        ("yes", (0, "OK: 14 steps replayed\n", "")),
        ("no", (1, "", "FAIL: proof does not conclude with this case's counterfactual\n")),
    ],
)
def test_verify_proof_checks_the_case_target_and_value(
    capsys, loan_cfc, loan_proof_doc, tmp_path, value, expected
):
    # the proof replays whatever the target's value; the case asks for Loan = yes
    text = json.dumps(loan_proof_doc)
    assert text.count("|- Loan = yes") == 2
    proof_path = tmp_path / "loan.proof.json"
    proof_path.write_text(text.replace("|- Loan = yes", f"|- Loan = {value}"))
    assert run(capsys, "verify-proof", str(proof_path), loan_cfc) == expected


def test_verify_proof_rejects_a_proof_that_does_not_start_from_the_candidate(
    capsys, loan_cfc, loan_proof_doc, tmp_path
):
    # drop what the value cuts erase, and their steps: the proof still replays
    assumption = loan_proof_doc["assumptions"][0]
    for attr in ("Gender = m", "SAT = 1100", "Degree = PhD"):
        assert f", {attr}" in assumption
        assumption = assumption.replace(f", {attr}", "")
    conclusion = loan_proof_doc["steps"][-1]["conclusion"]
    steps = loan_proof_doc["steps"][:11]
    assert [s["rule"] for s in loan_proof_doc["steps"][11:]] == ["value-cut"] * 3
    steps[-1]["conclusion"] = conclusion.replace("@ 0.6", "@ 0.99")
    doc = {"assumptions": [assumption.replace("@ 0.6", "@ 0.99")], "steps": steps}
    proof_path = tmp_path / "unanchored.proof.json"
    proof_path.write_text(json.dumps(doc))
    expected = (1, "", "FAIL: proof does not start from this case's candidate\n")
    assert run(capsys, "verify-proof", str(proof_path), loan_cfc) == expected


def test_verify_proof_starts_from_the_case_s_candidate_block(capsys, data_dir, loan_cfc, tmp_path):
    case = tmp_path / "override.cfc"
    case.write_text(
        (data_dir / "loan.cfc").read_text().replace(
            "factual_prob 0.60;", "candidate { MS = div; SAT = 1100; }\nfactual_prob 0.60;"
        )
    )
    db = tmp_path / "override.db"
    db.write_text("MS = div, SAT = 1100 |- Loan = yes @ 0.5;")
    proof_path = tmp_path / "override.proof.json"
    code, _, _ = run(capsys, "derive", str(case), "--oracle", f"db:{db}", "--emit-proof", str(proof_path))
    assert code == 0
    assert run(capsys, "verify-proof", str(proof_path), str(case)) == (0, "OK: 12 steps replayed\n", "")
    # the same proof does not start from the reduced point of the case without the block
    expected = (1, "", "FAIL: proof does not start from this case's candidate\n")
    assert run(capsys, "verify-proof", str(proof_path), loan_cfc) == expected


@pytest.mark.parametrize("kind", ["csv", "db"])
@pytest.mark.parametrize("undecodable", [True, False], ids=["undecodable", "missing"])
def test_oracle_load_error_names_the_file_once(capsys, loan_cfc, tmp_path, kind, undecodable):
    path = tmp_path / f"oracle.{kind}"
    if undecodable:
        path.write_bytes(UNDECODABLE)
    code, out, err = run(capsys, "check", loan_cfc, "--oracle", f"{kind}:{path}")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.count(str(path)) == 1


# ---------------------------------------------------------------------------
# Every input reaches a documented exit code; only a bug in cfcheck exits 5.

DEEP_JSON = "[" * 100_000 + "]" * 100_000  # deeper than json.loads can recurse
LONG_NUMERAL = "9" * 5000  # longer than the interpreter's 4300-digit int() limit
needs_int_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this interpreter has no int() digit limit"
)
LOAN_CSV = "Gender,MS,SAT,GAI,Degree,Experience,Loan\n" + "".join(
    f"m,{ms},1100,{gai},PhD,{exp},{loan}\n"
    for ms, gai, exp, loan in [
        *[("mar", "65K", "5y", "yes")] * 3,
        *[("mar", "65K", "5y", "no")] * 2,
        ("div", "65K", "5y", "yes"),
        ("div", "40K", "2y", "yes"),
        ("div", "65K", "2y", "yes"),
        ("div", "40K", "5y", "no"),
        ("div", "65K", "5y", "no"),
    ]
)


def _argv(kind: str, text: str, directory) -> list[str]:
    """A command that reads `text` as its input of the given kind; a `cmd`
    input is the response line of an external-command oracle."""
    path = directory / f"input.{kind}"
    path.write_text(text, encoding="utf-8")
    loan, db = str(DATA / "loan.cfc"), f"db:{DATA / 'loan.db'}"
    return {
        "case": ["check", str(path), "--oracle", db],
        "db": ["check", loan, "--oracle", f"db:{path}"],
        "csv": ["check", loan, "--oracle", f"csv:{path}"],
        "cmd": ["check", loan, "--oracle", f"cmd:cat {shlex.quote(str(path))}"],
        "proof": ["verify-proof", str(path), loan],
    }[kind]


@pytest.mark.parametrize(
    "kind, text, code",
    [
        pytest.param("proof", DEEP_JSON, 3, id="deep-proof-json"),
        pytest.param("cmd", DEEP_JSON, 4, id="deep-oracle-response"),
        pytest.param("csv", "A,B\nx," + "y" * 131_073 + "\n", 3, id="csv-cell-over-field-limit"),
        pytest.param(
            "db", f"A = x |- B = y @ 1/{LONG_NUMERAL};", 3, id="long-numeral-in-db",
            marks=needs_int_digit_limit,
        ),
        pytest.param(
            "proof", f'{{"assumptions": [], "steps": [{{"premise": {LONG_NUMERAL}}}]}}', 3,
            id="long-number-in-proof-json", marks=needs_int_digit_limit,
        ),
        pytest.param(
            "cmd", f'{{"probability": {LONG_NUMERAL}}}', 4,
            id="long-number-in-oracle-response", marks=needs_int_digit_limit,
        ),
    ],
)
def test_input_that_crashed_its_reader_exits_with_its_code(capsys, tmp_path, kind, text, code):
    got, out, err = run(capsys, *_argv(kind, text, tmp_path))
    assert (got, out) == (code, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err and "internal error" not in err


@needs_int_digit_limit
def test_long_numeral_epsilon_is_parse_error(capsys, loan_cfc, data_dir):
    code, out, err = run(capsys, "check", loan_cfc, "--oracle", f"db:{data_dir / 'loan.db'}",
                         "--epsilon", f"1/{LONG_NUMERAL}")
    assert (code, out) == (3, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"bad epsilon: parse error: 1:3: expected at most {limit} digits, found 5000\n"


@pytest.mark.parametrize("layer", ["_read", "_verdict_report"])
def test_crash_in_one_batch_file_is_reported_for_that_file_alone(
    capsys, monkeypatch, loan_cfc, data_dir, tmp_path, layer
):
    crashing = tmp_path / "crash.cfc"
    crashing.write_text((data_dir / "loan.cfc").read_text())
    real = getattr(cli, layer)

    def crash_on_one_file(*args):
        if str(crashing) in args:
            raise RuntimeError("injected")
        return real(*args)

    monkeypatch.setattr(cli, layer, crash_on_one_file)
    paths = [loan_cfc, str(crashing), loan_cfc]
    code, out, err = run(capsys, "check", *paths, "--oracle", f"db:{data_dir / 'loan.db'}",
                         "--jobs", "2")
    assert code == 5
    assert [line.split(": ")[0] for line in out.splitlines()] == [loan_cfc] * 6
    assert err == f"{crashing}: internal error: RuntimeError: injected\n"


def test_crash_in_derive_exits_5_with_one_line(capsys, monkeypatch, loan_cfc, data_dir):
    def crash(case, oracle):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "derive_counterfactual", crash)
    assert run(capsys, "derive", loan_cfc, "--oracle", f"db:{data_dir / 'loan.db'}") == (
        5, "", "internal error: RuntimeError: injected\n"
    )


def _loan_proof_text() -> str:
    from cfcheck.dsl import parse_case, parse_judgment_db, render_proof
    from cfcheck.engine import derive_counterfactual
    from cfcheck.oracle import JudgmentDbOracle

    case = parse_case((DATA / "loan.cfc").read_text())
    oracle = JudgmentDbOracle(parse_judgment_db((DATA / "loan.db").read_text()))
    return render_proof(derive_counterfactual(case, oracle)[1])


FUZZ_BASES = {
    "case": (DATA / "loan.cfc").read_text(),
    "db": (DATA / "loan.db").read_text(),
    "csv": LOAN_CSV,
    "cmd": '{"probability": "0.60"}\n',
    "proof": _loan_proof_text(),
}
FUZZ_CHARS = st.sampled_from(list("{}[]()-|>;=,!@/+.#\":\n 0169abnoyAZ_") + ["é", "\x00", "\r"])


@st.composite
def mutated_inputs(draw):
    """One input kind and a copy of its base text with a few spans replaced."""
    kind = draw(st.sampled_from(sorted(FUZZ_BASES)))
    text = FUZZ_BASES[kind]
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 12)))
        text = text[:start] + draw(st.text(FUZZ_CHARS, max_size=12)) + text[end:]
    return kind, text


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(mutated_inputs())
@example(("proof", DEEP_JSON))
@example(("cmd", DEEP_JSON))
@example(("csv", "A,B\nx," + "y" * 131_073 + "\n"))
@example(("db", f"A = x |- B = y @ 1/{LONG_NUMERAL};"))
def test_mutated_inputs_reach_a_documented_exit_code(fuzz_dir, kind_text):
    kind, text = kind_text
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(_argv(kind, text, fuzz_dir))
    assert code in range(5), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 1:  # only a verdict or a replay says 1
        assert "UNFAIR" in out.getvalue() or err.getvalue().startswith("FAIL")
