"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q benchmark

The known-answer references must agree with cfcheck, and a wrong answer
on either side must show up as a failed operation.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import checkout

cfcheck = checkout.import_cfcheck()

from cfcheck import closure, dsl, engine  # noqa: E402

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((checkout.HERE.parent / "BENCHMARK.json").read_text())


def _tiny_table(tmp_path, seed=5):
    return inputs.csv_table(seed, tmp_path, rows=400)


# ---------------------------------------------------------------------------
# proof-roundtrip


def test_reduced_point_and_step_count_match_cfcheck(tmp_path):
    pool = inputs.proof_inputs(7, tmp_path, count=12, sizes=(6, 8, 11))
    for c in pool:
        case = dsl.parse_case(Path(c.case).read_text())
        _, sigma = engine.build_candidate(case)
        assert [(a.var, dsl.render_valueterm(a.value)) for a in sigma] == c.reduced
    run = wl.Run(0)
    for c in pool:
        wl.proof_case(run, c)
    assert run.attempted == 2 * len(pool)
    assert run.failed == 0, run.problems


def test_forged_proof_expected_valid_is_a_failure(tmp_path, monkeypatch):
    c = inputs.proof_inputs(3, tmp_path, count=1, sizes=(8,))[0]
    assert not c.forged
    real = wl.call_cli

    def forging(argv):
        if argv[0] == "verify-proof":
            wl.forge(argv[1])
        return real(argv)

    monkeypatch.setattr(wl, "call_cli", forging)
    run = wl.Run(0)
    wl.proof_case(run, c)
    assert run.failed == 1 and "verify" in run.problems[0]


# ---------------------------------------------------------------------------
# csv-audit


def test_csv_known_answers_match_cfcheck(tmp_path):
    table = _tiny_table(tmp_path)
    pool = inputs.csv_inputs(5, table, count=60)
    audit = wl.CsvAudit(wl.cli.load_oracle(f"csv:{table.path}"))
    run = wl.Run(0)
    for c in pool:
        audit(run, c)
    assert run.failed == 0, run.problems
    assert {"FAIR", "UNFAIR", "CandidateRejected"} <= set(audit.outcomes)


def test_wrong_csv_count_is_a_failure(tmp_path, monkeypatch):
    table = _tiny_table(tmp_path)
    count = ref.RowIndex.count
    monkeypatch.setattr(ref.RowIndex, "count", lambda self, attrs: count(self, attrs) + 1)
    pool = inputs.csv_inputs(5, table, count=8)
    monkeypatch.undo()
    audit = wl.CsvAudit(wl.cli.load_oracle(f"csv:{table.path}"))
    run = wl.Run(0)
    for c in pool:
        audit(run, c)
    assert run.failed > 0


# ---------------------------------------------------------------------------
# closure-report


def _brute_force(nodes, edges):
    """Union of path nodes (source excluded) over every simple a-to-b path."""

    def paths(a, b):
        if a == b:
            yield [a]
            return
        for s, d in edges:
            if s == a:
                for tail in paths(d, b):
                    yield [a] + tail

    out = {}
    for a in nodes:
        for b in nodes:
            if a == b:
                out[(a, b)] = frozenset({a})
                continue
            found = list(paths(a, b))
            if found:
                out[(a, b)] = frozenset().union(*(p[1:] for p in found))
    return out


def test_closure_reference_matches_brute_force_and_cfcheck():
    for k in range(60):
        rng = random.Random(k)
        n = rng.randint(1, 8)
        nodes = [f"n{i}" for i in rng.sample(range(20), n)]
        edges = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :] if rng.random() < 0.45]
        want = ref.closure_witnesses(nodes, edges)
        assert want == _brute_force(nodes, edges)
        g = cfcheck.CausalGraph(frozenset(nodes), frozenset(edges))
        assert {(a, b): m for a, b, m in closure.mediate_closure(g).entries} == want


def test_closure_output_check(tmp_path):
    pool = inputs.closure_inputs(9, tmp_path, count=3, sizes=(7, 12, 20))
    run = wl.Run(0)
    for c in pool:
        wl.closure_case(run, c)
    assert run.failed == 0, run.problems
    c = pool[2]
    code, out, _ = wl.call_cli(["closure", c.path])
    assert ref.check_closure_output(out, c.nodes, c.edges) is None
    lines = out.splitlines()
    head, _, tail = lines[-1].partition(" via {")
    assert ref.check_closure_output("\n".join(lines[:-1]), c.nodes, c.edges)
    wrong = lines[:-1] + [f"{head} via {{{c.nodes[0]}, {tail}"]
    assert ref.check_closure_output("\n".join(wrong), c.nodes, c.edges)


# ---------------------------------------------------------------------------
# Tracing and the result line


def test_tracer_wraps_every_lookup_and_restores(tmp_path):
    originals = {m: vars(m).get("descendants") for m in (cfcheck, cfcheck.closure, cfcheck.engine, cfcheck.kernel, cfcheck.cli)}
    eq = cfcheck.Judgment.__eq__
    tracer = tracing.Tracer()
    c = inputs.proof_inputs(2, tmp_path, count=1, sizes=(10,))[0]
    with tracer.active(0):
        assert all(vars(m)["descendants"] is not f for m, f in originals.items())
        wl.proof_case(wl.Run(0), c)
    assert all(vars(m)["descendants"] is f for m, f in originals.items())
    assert cfcheck.Judgment.__eq__ is eq
    table = tracing.summarize(tracer.spans)
    for name in ("cli.main", "kernel.check_proof", "dsl.parse_proof", "closure.descendants", "model.Judgment.eq"):
        assert table[name]["calls"] > 0, name
    assert table["cli.main"]["calls"] == 2
    for row in table.values():
        assert -1e-9 <= row["self_s"] <= row["s"] + 1e-9
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["engine.proof_steps"]["value"] == c.steps
    assert metrics["kernel.rule_ok_ratio"]["value"] == 1


def test_result_line_carries_every_contract_metric(monkeypatch):
    monkeypatch.setattr(inputs, "CLOSURE_POOL", 2)
    monkeypatch.setattr(inputs, "CLOSURE_SIZES", (9, 14))
    monkeypatch.setattr(wl, "SETUP_REPEATS", 2)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = io.StringIO()
        with redirect_stdout(out):
            bench_run.main(["--workload", "closure-report", "--seed", "1", "--seconds", "0.05", "--trace", str(trace)])
        result = json.loads(out.getvalue().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
        for m in SPEC[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    for p in SPEC["paths"]:
        shutil.copytree(checkout.HERE.parent / p, tmp_path / p, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(checkout.HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:] + ["--workload", "csv-audit", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
