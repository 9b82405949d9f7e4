"""Command-line front door.

Exit codes: 0 fair (or success for non-verdict commands), 1 unfair or
failed proof check, 2 candidate rejected as a counterfactual, 3 parse or
configuration error, or output that cannot be written (a reader that closed
early, a full device), 4 oracle error, 5 internal error (a bug, never a verdict).
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from fractions import Fraction

from . import dsl
from .closure import mediate_closure, descendants
from .engine import CandidateRejected, ConsistencyError, check_case, derive_counterfactual
from .engine import known_contexts, verify_proof
from .model import CausalGraph, InvalidModel
from .oracle import (
    ClassifierOracle,
    CsvFrequencyOracle,
    ExternalCommandOracle,
    JudgmentDbOracle,
    OracleError,
)

EXIT_FAIR = 0
EXIT_UNFAIR = 1
EXIT_NOT_COUNTERFACTUAL = 2
EXIT_CONFIG = 3
EXIT_ORACLE = 4
EXIT_INTERNAL = 5


class ConfigError(Exception):
    pass


class OutputError(Exception):
    """Standard output cannot be written: its reader has gone, or its device is full."""


# Every error a command reports: (exception types, exit code, message prefix).
# The first row that matches wins; the last one catches what no other does.
_ERRORS = (
    ((dsl.ParseError, dsl.ProofFormatError), EXIT_CONFIG, "parse error: "),
    ((InvalidModel, ConsistencyError, ConfigError), EXIT_CONFIG, ""),
    ((CandidateRejected,), EXIT_NOT_COUNTERFACTUAL, ""),
    ((OracleError,), EXIT_ORACLE, "oracle error: "),
    ((OutputError,), EXIT_CONFIG, "cannot write output: "),
    ((Exception,), EXIT_INTERNAL, "internal error: {type}: "),
)


def _error(e: Exception, head: str = "") -> tuple[int, str]:
    """The exit code and the one-line stderr message of any error."""
    code, prefix = next((code, prefix) for types, code, prefix in _ERRORS if isinstance(e, types))
    return code, f"{head}{prefix.format(type=type(e).__name__)}{e}"


def _write(lines) -> None:
    """Write and flush stdout now, not at exit; an OSError doing so is an OutputError."""
    try:
        if sys.stdout is None:  # closed at start
            raise OSError("standard output is closed")
        sys.stdout.writelines(lines)
        sys.stdout.flush()
    except OSError as e:
        raise OutputError(e) from e


def _warn(message: str) -> None:
    """Print one line to stderr; when stderr cannot take it, the exit code still tells."""
    with suppress(OSError):
        print(message, file=sys.stderr)


def load_oracle(spec: str) -> ClassifierOracle:
    """`csv:PATH`, `db:PATH`, or `cmd:PROGRAM ARGS`."""
    kind, sep, rest = spec.partition(":")
    if not sep or not rest:
        raise ConfigError(f"bad oracle spec: {spec!r} (want csv:PATH, db:PATH or cmd:COMMAND)")
    try:
        if kind == "csv":
            return CsvFrequencyOracle.from_text(_read(rest))
        if kind == "db":
            return JudgmentDbOracle(dsl.parse_judgment_db(_read(rest)))
        if kind == "cmd":
            try:
                return ExternalCommandOracle(shlex.split(rest))
            except ValueError as e:  # shlex's: an unclosed quote or a trailing backslash
                raise ConfigError(f"cannot load oracle {spec!r}: {e}")
    except (dsl.ParseError, OracleError) as e:  # a ConfigError from _read names the file itself
        raise ConfigError(_error(e, f"cannot load oracle {spec!r}: ")[1])
    raise ConfigError(f"unknown oracle kind: {kind!r}")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise ConfigError(str(e))
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path!r} is not UTF-8 text: byte {e.start}: {e.reason}")


def _epsilon(text: str) -> Fraction:
    try:
        return dsl.parse_probability_literal(text)
    except dsl.ParseError as e:
        raise ConfigError(f"bad epsilon: parse error: {e}")


def _verdict_report(verdict, path: str, fmt: str, batch: bool) -> str:
    """One line of JSON naming the case file, or text lines that name it in a batch."""
    r = dsl.render_probability
    if fmt == "json":
        return json.dumps(
            {
                "case": path,
                "fair": verdict.fair,
                "p": r(verdict.p),
                "q": r(verdict.q),
                "difference": r(verdict.difference),
                "epsilon": r(verdict.epsilon),
                "counterfactual": dsl.render_judgment(verdict.counterfactual_judgment),
                "proof": dsl.proof_to_dict(verdict.proof),
                "rule_counts": verdict.proof.rule_counts(),
            }
        )
    prefix = f"{path}: " if batch else ""
    word = "FAIR" if verdict.fair else "UNFAIR"
    counts = verdict.proof.rule_counts()
    summary = ", ".join(f"{n} {rule}" for rule, n in sorted(counts.items()))
    return (
        f"{prefix}{word} p={r(verdict.p)} q={r(verdict.q)} "
        f"|p-q|={r(verdict.difference)} epsilon={r(verdict.epsilon)}\n"
        f"{prefix}counterfactual: {dsl.render_judgment(verdict.counterfactual_judgment)}\n"
        f"{prefix}proof: {len(verdict.proof.steps)} steps ({summary})"
    )


def _check_one(path: str, oracle, epsilon, fmt, batch: bool) -> tuple[int, str, str]:
    """Check one case file; return its exit code, stdout text and stderr text."""
    try:
        verdict = check_case(dsl.parse_case(_read(path)), oracle, epsilon)
        report = _verdict_report(verdict, path, fmt, batch)
    except Exception as e:  # a ConfigError here comes from _read, whose message names the file
        code, message = _error(e, "" if isinstance(e, ConfigError) else f"{path}: ")
        return code, "", message
    return (EXIT_FAIR if verdict.fair else EXIT_UNFAIR), report, ""


def cmd_check(args) -> int:
    oracle = load_oracle(args.oracle)
    epsilon = _epsilon(args.epsilon)
    batch = len(args.casefile) > 1
    worst = EXIT_FAIR
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        # map yields in argument order, so only this thread prints
        for code, out, err in pool.map(
            lambda path: _check_one(path, oracle, epsilon, args.format, batch),
            args.casefile,
        ):
            if out:
                _write([out + "\n"])
            if err:
                _warn(err)
            worst = max(worst, code)
    return worst


def cmd_derive(args) -> int:
    oracle = load_oracle(args.oracle)
    case = dsl.parse_case(_read(args.casefile))
    judgment, proof = derive_counterfactual(case, oracle)
    if args.emit_proof:  # before the judgment, so that a run that fails prints no result
        try:
            with open(args.emit_proof, "w", encoding="utf-8") as f:
                f.write(dsl.render_proof(proof))
        except OSError as e:
            raise ConfigError(f"cannot write proof: {e}")
    _write([dsl.render_judgment(judgment) + "\n"])
    return 0


def cmd_closure(args) -> int:
    parsed = dsl.parse_case_or_graph(_read(args.file))
    graph = parsed if isinstance(parsed, CausalGraph) else parsed.graph
    if args.of:
        _write([", ".join(sorted(descendants(graph, args.of))) + "\n"])
        return 0
    _write(f"{a} -> {b} via {{{', '.join(w)}}}\n" for a, b, w in mediate_closure(graph).sorted_entries())
    return 0


def cmd_verify_proof(args) -> int:
    text = _read(args.prooffile)
    try:
        case = dsl.parse_case(_read(args.casefile))
    except Exception:
        dsl.parse_proof(text)  # a malformed proof is reported before the case
        raise
    proof = dsl.parse_proof(text, known_contexts(case))
    result = verify_proof(case, proof)
    if result.ok:
        _write([f"OK: {len(proof.steps)} steps replayed\n"])
        return 0
    where = "" if result.step is None else f" at step {result.step}"
    # a proof that replays keeps its conclusion; a case check failure prints no code
    code = "" if result.conclusion is not None else f"{result.code}: "
    _warn(f"FAIL{where}: {code}{result.reason}")
    return 1


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 3, not argparse's 2
        self._print_message(f"{self.format_usage()}{self.prog}: error: {message}\n", sys.stderr)
        raise SystemExit(EXIT_CONFIG)

    def _print_message(self, message, file=None):  # argparse would drop a failed write of --help
        if file is sys.stdout:
            return _write([message])
        super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cfcheck",
        description="Counterfactual fairness verification for probabilistic classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide counterfactual fairness of case files")
    p.add_argument("casefile", nargs="+")
    p.add_argument("--oracle", required=True, help="csv:PATH, db:PATH or cmd:COMMAND")
    p.add_argument("--epsilon", default="0", help="fairness threshold (default 0: identity)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--jobs", type=int, default=1, help="check in threads; helps only cmd: oracles")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("derive", help="derive the counterfactual judgment and its proof")
    p.add_argument("casefile")
    p.add_argument("--oracle", required=True, help="csv:PATH, db:PATH or cmd:COMMAND")
    p.add_argument("--emit-proof", metavar="PATH", help="write the replayable proof file")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("closure", help="print the mediate-cause closure or a descendant set")
    p.add_argument("file", help="case file or bare graph file")
    p.add_argument("--of", metavar="VAR", help="print only the descendants of VAR")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("verify-proof", help="replay a proof file against a case")
    p.add_argument("prooffile")
    p.add_argument("casefile")
    p.set_defaults(func=cmd_verify_proof)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as e:
        code, message = _error(e)
        _warn(message)
        return code


def entry() -> None:
    try:
        code = main()
    finally:  # a failed write is reported, or cannot be; the flush at exit must not fail again
        for stream in filter(None, (sys.stdout, sys.stderr)):  # None: closed at start
            try:
                stream.flush()
            except OSError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
