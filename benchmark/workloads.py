"""The three workloads.  Load comes from one thread in a closed loop: the
next operation starts only after the previous one returned.  Each operation
is timed alone, and its output is checked against the known answer after
its timer stops.

cfcheck is reached through module attributes (`cli.main`, `dsl.parse_case`,
`engine.check_case`) so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from cfcheck import cli, dsl, engine, oracle

import inputs
import reference as ref

SETUP_REPEATS = 7

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cfcheck
from cfcheck import cli
if len(sys.argv) > 2:
    cli.load_oracle(sys.argv[2])
print(time.perf_counter() - t0)
"""


def setup_probe(src: Path, oracle_spec: Optional[str]) -> Callable[[], float]:
    """A function that measures, in a fresh process, the seconds for
    `import cfcheck` plus the oracle load when there is one."""
    argv = [sys.executable, "-c", _SETUP_CODE, str(src)] + ([oracle_spec] if oracle_spec else [])

    def measure() -> float:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.strip().splitlines()[-1])

    return measure


_TOKEN_RE = re.compile(r"[A-Za-z0-9_.]+\Z")
_TOKENS = ("t0", "t1", "t2", "abc", "x_1", "v12", "q.3", "zz")
_ROW = {f"c{j}": _TOKENS[j % 8] for j in range(11)}


def _token(x):
    if not isinstance(x, str) or not _TOKEN_RE.match(x):
        raise ValueError(x)
    return x


def reference_loop() -> int:
    """Fixed pure-Python work (about 20 ms) timed between cases: integer
    arithmetic, then dict lookups, calls and regex matches as in a CSV
    oracle scan.  A shared host can change speed by up to 2x over minutes,
    and not by the same factor for every kind of work; dividing case time
    by this loop's time, measured in the same minutes, cancels most of it."""
    s = 0
    for i in range(100_000):
        s += i * i % 7
    for _ in range(12_000):
        s += all(_token(_ROW[c]) == _TOKENS[k] for k, c in enumerate(("c1", "c5", "c9")))
    return s


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Run:
    """Samples, counts and failures of one benchmark run."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.timed = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.case_s: list[float] = []
        self.traced_s: list[float] = []
        self.reference_s: list[float] = []
        self.setup_s: list[float] = []
        self.cases = 0

    def op(self, fn: Callable, *args):
        """Time one call; an exception is returned, not raised."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            value = fn(*args)
        except Exception as e:  # the loop must go on; the failure is counted
            value = e
            e.trace = traceback.format_exc(limit=3)
        dt = perf_counter() - t0
        self.timed += dt
        return dt, value

    def check(self, problem: Optional[str]) -> bool:
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)
        return problem is None


REFERENCE_EVERY_S = 0.25


def drive(run: Run, pool: list, do_case: Callable, tracer=None, setup: Optional[Callable[[], float]] = None) -> None:
    """Run cases from `pool` in order, cycling, until `run.seconds` of
    operation time is spent.

    With a tracer each case runs twice, untraced and then traced, so the
    pair gives the tracing overhead.  Between cases, untimed: the reference
    loop runs whenever REFERENCE_EVERY_S of operation time has passed, and
    `setup` runs SETUP_REPEATS times spread over the run, so both sample
    the same minutes of host speed as the cases do.
    """
    k = 0
    next_reference = next_setup = 0.0
    while k == 0 or run.timed < run.seconds:
        if run.timed >= next_reference:
            t0 = perf_counter()
            reference_loop()
            run.reference_s.append(perf_counter() - t0)
            next_reference = run.timed + REFERENCE_EVERY_S
        if setup is not None and run.timed >= next_setup:
            run.setup_s.append(setup())
            next_setup = run.timed + run.seconds / SETUP_REPEATS
        inp = pool[k % len(pool)]
        run.case_s.append(do_case(run, inp))
        if tracer is not None:
            with tracer.active(k):
                run.traced_s.append(do_case(run, inp))
        k += 1
    run.cases = k
    while setup is not None and len(run.setup_s) < SETUP_REPEATS:
        run.setup_s.append(setup())


def _unexpected(value) -> Optional[str]:
    if isinstance(value, Exception):
        return f"raised {value!r}\n{getattr(value, 'trace', '')}"
    return None


# ---------------------------------------------------------------------------
# proof-roundtrip


def _check_derive(c: inputs.ProofInput, value) -> Optional[str]:
    problem = _unexpected(value)
    if problem:
        return f"derive {c.case}: {problem}"
    code, out, err = value
    if code != 0:
        return f"derive {c.case}: exit {code}: {err.strip()[:200]}"
    head, sep, prob = out.strip().rpartition(" @ ")
    if not sep or not head.endswith(f"|- {c.target} = yes") or Fraction(prob) != c.q:
        return f"derive {c.case}: printed {out.strip()[-80:]!r}"
    with open(c.proof, encoding="utf-8") as f:
        doc = json.load(f)
    lhs = doc["assumptions"][0].partition(" |- ")[0]
    attrs = [tuple(x.split(" = ", 1)) for x in lhs.split(", ") if " = " in x]
    if attrs != c.reduced:
        return f"derive {c.case}: reduced point {attrs} != {c.reduced}"
    if len(doc["steps"]) != c.steps:
        return f"derive {c.case}: {len(doc['steps'])} steps, expected {c.steps}"
    return None


def forge(path: str) -> None:
    """Rewrite the last step's certified probability."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    last = doc["steps"][-1]
    head, _, prob = last["conclusion"].rpartition(" @ ")
    last["conclusion"] = f"{head} @ {'0' if Fraction(prob) else '1'}"
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, indent=2) + "\n")


def _check_verify(c: inputs.ProofInput, value) -> Optional[str]:
    problem = _unexpected(value)
    if problem:
        return f"verify {c.case}: {problem}"
    code, out, err = value
    if c.forged:
        if code != 1 or f"FAIL at step {c.steps - 1}: conclusion-mismatch" not in err:
            return f"verify forged {c.case}: exit {code}: {err.strip()[:200]}"
    elif code != 0 or out.strip() != f"OK: {c.steps} steps replayed":
        return f"verify {c.case}: exit {code}: {(out + err).strip()[:200]}"
    return None


def proof_case(run: Run, c: inputs.ProofInput) -> float:
    argv = ["derive", c.case, "--oracle", f"db:{c.db}", "--emit-proof", c.proof]
    dt_derive, value = run.op(call_cli, argv)
    run.samples["derive_s"].append(dt_derive)
    if not run.check(_check_derive(c, value)):
        return dt_derive
    run.samples["proof_bytes"].append(os.path.getsize(c.proof))
    if c.forged:
        forge(c.proof)
    dt_verify, value = run.op(call_cli, ["verify-proof", c.proof, c.case])
    run.samples["verify_s"].append(dt_verify)
    run.check(_check_verify(c, value))
    return dt_derive + dt_verify


# ---------------------------------------------------------------------------
# csv-audit


class CsvAudit:
    def __init__(self, oracle_):
        self.oracle = oracle_
        self.outcomes: dict[str, int] = defaultdict(int)

    def _audit(self, text: str):
        case = dsl.parse_case(text)
        try:
            return engine.check_case(case, self.oracle, inputs.EPSILON)
        except (engine.CandidateRejected, oracle.UndefinedProbability) as e:
            return e

    def __call__(self, run: Run, c: inputs.CsvInput) -> float:
        dt, got = run.op(self._audit, c.text)
        run.samples["check_s"].append(dt)
        kind = c.expected[0]
        if isinstance(got, engine.Verdict):
            ok = kind == "verdict" and (got.fair, got.p, got.q) == c.expected[1:]
            outcome = "FAIR" if got.fair else "UNFAIR"
        else:
            ok = type(got).__name__ == kind
            outcome = type(got).__name__
        self.outcomes[outcome] += 1
        run.check(None if ok else f"check: got {outcome} {got!r:.200}, expected {c.expected}")
        return dt


# ---------------------------------------------------------------------------
# closure-report


def closure_case(run: Run, c: inputs.ClosureInput) -> float:
    dt, value = run.op(call_cli, ["closure", c.path])
    run.samples["closure_s"].append(dt)
    problem = _unexpected(value)
    if problem is None:
        code, out, err = value
        problem = f"exit {code}: {err.strip()[:200]}" if code else ref.check_closure_output(out, c.nodes, c.edges)
    run.check(None if problem is None else f"closure {c.path}: {problem}")
    return dt
