"""cfcheck benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each one is there):
  proof-roundtrip  `cfcheck derive --emit-proof` then `cfcheck verify-proof`
                   on ROADMAP-generator graphs, n = 40..60, a quarter of
                   the proofs forged;
  csv-audit        `dsl.parse_case` + `check_case` against one CSV oracle of
                   11 columns and 20k rows;
  closure-report   `cfcheck closure` on bare graphs, n = 100..200.

Inputs are generated from the seed into `benchmark/.work/` before any timer
starts.  Operations then run one at a time until `--seconds` of operation
time is spent, and every output is checked against an answer computed by
the benchmark's own code.  `--trace 0` reports the end-to-end metrics;
`--trace 1` runs each case untraced and then traced, reports the per-layer
metrics and writes the spans to `benchmark/.work/spans-<workload>.jsonl`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys

import checkout

WORKLOADS = ("proof-roundtrip", "csv-audit", "closure-report")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _timing(name: str, values: list[float]) -> str:
    """Median with its sample count, plus the highest of p90/p99 that has
    at least ten samples beyond it."""
    line = f"{name}.p50 = {statistics.median(values):.6f} s (n={len(values)})"
    for pct in (99, 90):
        if len(values) * (100 - pct) >= 1000:
            q = statistics.quantiles(values, n=100)[pct - 1]
            return line + f", {name}.p{pct} = {q:.6f} s"
    return line


def trimmed_mean(values: list[float], share: float = 0.1) -> float:
    """Mean of the values left after dropping `share` of them at each end."""
    k = int(len(values) * share)
    return statistics.mean(sorted(values)[k : len(values) - k])


def run_workload(args, work):
    import inputs
    import tracing
    import workloads as wl

    tracer = tracing.Tracer() if args.trace else None
    run = wl.Run(args.seconds)
    notes = []
    oracle_spec = None
    if args.workload == "proof-roundtrip":
        pool = inputs.proof_inputs(args.seed, work)
        do_case = wl.proof_case
        notes.append(f"inputs: {len(pool)} cases, n {min(c.n for c in pool)}-{max(c.n for c in pool)}, "
                     f"edges {min(c.edges for c in pool)}-{max(c.edges for c in pool)}, "
                     f"{sum(c.forged for c in pool)} forged")
    elif args.workload == "csv-audit":
        table = inputs.csv_table(args.seed, work)
        pool = inputs.csv_inputs(args.seed, table)
        oracle_spec = f"csv:{table.path}"
        notes.append(f"inputs: {len(table.rows)} rows x {len(table.columns)} columns, {len(pool)} cases, "
                     f"n {min(c.n for c in pool)}-{max(c.n for c in pool)}, "
                     f"edges {min(c.edges for c in pool)}-{max(c.edges for c in pool)}")
    else:
        pool = inputs.closure_inputs(args.seed, work)
        do_case = wl.closure_case
        notes.append(f"inputs: {len(pool)} graphs, n {min(len(c.nodes) for c in pool)}-"
                     f"{max(len(c.nodes) for c in pool)}, edges {min(len(c.edges) for c in pool)}-"
                     f"{max(len(c.edges) for c in pool)}")

    if oracle_spec:
        with tracer.active(-1) if tracer else contextlib.nullcontext():
            do_case = wl.CsvAudit(wl.cli.load_oracle(oracle_spec))
    setup = None if tracer else wl.setup_probe(checkout.SRC, oracle_spec)
    wl.drive(run, pool, do_case, tracer, setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    lines = notes + [f"cases: {run.cases}, operations: {run.attempted}, failed: {run.failed} "
                     f"(failed_share = {run.failed / run.attempted:.4f}), "
                     f"cases_per_s = {len(run.case_s) / sum(run.case_s):.4f}"]
    lines += [f"problem: {p}" for p in run.problems]
    if args.workload == "csv-audit":
        lines.append("outcomes: " + ", ".join(f"{k} {v}" for k, v in sorted(do_case.outcomes.items())))
    proof_bytes = run.samples["proof_bytes"]
    if proof_bytes:
        lines.append(f"proof_bytes: {sum(proof_bytes)} in {len(proof_bytes)} proofs")

    if tracer:
        untraced, traced = sum(run.case_s), sum(run.traced_s)
        metrics = tracing.layer_metrics(tracer.spans, run.cases)
        metrics["trace.overhead_share"] = {"value": (traced - untraced) / untraced, "unit": "ratio"}
        metrics["dsl.render_proof.bytes"] = {
            "value": statistics.mean(proof_bytes) if proof_bytes else 0,
            "unit": "bytes/case",
        }
        spans_path = work.parent / f"spans-{args.workload}.jsonl"
        tracer.write(spans_path)
        lines.append(f"spans: {len(tracer.spans)} written to {spans_path}")
    else:
        for name in ("case_s", "derive_s", "verify_s", "check_s", "closure_s"):
            values = run.case_s if name == "case_s" else run.samples[name]
            if values:
                lines.append(_timing(name, values))
        lines.append(f"reference_s.p50 = {statistics.median(run.reference_s):.6f} s (n={len(run.reference_s)})")
        metrics = {
            "setup_s": {"value": statistics.median(run.setup_s), "unit": "s"},
            "case_ref.tmean": {"value": trimmed_mean(run.case_s) / trimmed_mean(run.reference_s), "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return run, lines, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout.import_cfcheck()
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"{platform.machine()} {platform.processor() or platform.platform()}")
    work = checkout.HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run, lines, metrics = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
