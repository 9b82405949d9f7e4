"""Classifier oracles: anything that can answer "with what probability does
the target take this value, given these attributions".

Three backends: empirical frequency over a CSV table, a database of assumed
judgments, and an external command speaking a line-delimited JSON protocol.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Protocol

from .dsl import ParseError, parse_probability_literal
from .model import (
    Atom,
    DataPoint,
    InvalidModel,
    check_token,
    Judgment,
    ValueTerm,
    Sum,
    render_valueterm,
    variables_of,
)

DEFAULT_TIMEOUT_S = 10.0


class OracleError(Exception):
    """The oracle could not answer a query."""


class UndefinedProbability(OracleError):
    """No rows satisfy the conditioning attributions."""


class NoMatchingJudgment(OracleError):
    """No judgment in the database covers the queried data point."""


class ConflictingJudgments(OracleError):
    """The database holds contradictory probabilities for one query."""


@dataclass(frozen=True)
class OracleQuery:
    attributions: DataPoint
    target: str
    target_value: ValueTerm

    def __post_init__(self):
        if self.target in variables_of(self.attributions):
            raise OracleError(f"target {self.target} occurs among the query attributions")


class ClassifierOracle(Protocol):
    def query(self, q: OracleQuery) -> Fraction: ...


# ---------------------------------------------------------------------------
# Empirical frequency over a CSV table.


class CsvFrequencyOracle:
    """Answers queries by exact conditional frequency over a loaded table.

    Cells are opaque tokens; rows with empty cells are rejected at load.
    Each column numbers its distinct tokens in first-seen order and keeps
    one bitset per bit of those numbers, holding the rows whose token's
    number has that bit set. A query never visits the rows.
    """

    def __init__(self, columns: list[str], tokens: list[dict[str, int]], ids: list[array], n_rows: int):
        self.all_rows = (1 << n_rows) - 1
        self.tokens = dict(zip(columns, tokens))
        self.planes = {col: _bit_planes(i, len(t)) for col, t, i in zip(columns, tokens, ids)}

    @classmethod
    def from_text(cls, text: str) -> "CsvFrequencyOracle":
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader, [])
            if not header:
                raise OracleError("empty CSV: missing header")
            if len(set(header)) != len(header) or any(not c for c in header):
                raise OracleError(f"invalid CSV header: {header}")
            tokens: list[dict[str, int]] = [{} for _ in header]
            ids = [array("I") for _ in header]
            n_rows = 0
            for lineno, raw in enumerate(reader, start=2):
                if not raw:
                    continue
                if len(raw) != len(header):
                    raise OracleError(f"CSV line {lineno}: expected {len(header)} cells, got {len(raw)}")
                for cell, seen, col_ids in zip(raw, tokens, ids):
                    i = seen.get(cell)
                    if i is None:
                        if cell == "":
                            raise OracleError(f"CSV line {lineno}: empty cell")
                        try:
                            check_token(cell)
                        except InvalidModel:
                            raise OracleError(f"CSV line {lineno}: cell {cell!r} is not a plain token")
                        i = seen[cell] = len(seen)
                    col_ids.append(i)
                n_rows += 1
        except csv.Error as e:  # a cell over csv.field_size_limit(), for one
            raise OracleError(f"CSV line {reader.line_num}: {e}")
        return cls(header, tokens, ids, n_rows)

    def query(self, q: OracleQuery) -> Fraction:
        for var in sorted(variables_of(q.attributions) | {q.target}):
            if var not in self.tokens:
                raise OracleError(f"unknown column: {var}")
        rows = self.all_rows
        for a in q.attributions:
            rows &= self._rows_matching(a.var, a.value)
        denominator = rows.bit_count()
        if denominator == 0:
            raise UndefinedProbability("no rows match the query attributions")
        numerator = (rows & self._rows_matching(q.target, q.target_value)).bit_count()
        return Fraction(numerator, denominator)

    def _rows_matching(self, column: str, term: ValueTerm) -> int:
        """Rows whose cell in `column` satisfies `term`: an atom's are the AND
        of its token's bit planes (none for an absent token), a sum ORs its
        members' rows, and a complement takes the other rows."""
        if isinstance(term, Atom):
            if (i := self.tokens[column].get(term.token)) is None:
                return 0
            rows = self.all_rows
            for k, plane in enumerate(self.planes[column]):
                rows &= plane if i >> k & 1 else self.all_rows ^ plane
            return rows
        if isinstance(term, Sum):
            rows = 0
            for member in term.members:
                rows |= self._rows_matching(column, member)
            return rows
        return self.all_rows ^ self._rows_matching(column, term.inner)  # a complement


def _bit_planes(ids: array, distinct: int) -> list[int]:
    """Plane k of a column: the bit of row i is set when bit k of `ids[i]`
    is. One byte of every packed id, mapped to binary digits, is parsed by
    `int(..., 2)` in linear time (a per-row `|= 1 << i` is quadratic). The
    first row lands on the highest bit; counts do not depend on the order."""
    if sys.byteorder == "big":
        ids.byteswap()
    packed = ids.tobytes()
    planes = []
    for k in range((distinct - 1).bit_length() if distinct else 0):
        digits = bytes(b"01"[b >> k % 8 & 1] for b in range(256))
        column_byte = packed[k // 8 :: ids.itemsize]
        planes.append(int(column_byte.translate(digits), 2))
    return planes


# ---------------------------------------------------------------------------
# Judgment database.


class JudgmentDbOracle:
    """Answers from assumed judgments with attribution-only contexts.

    A query matches a judgment whose context equals the queried data point
    as a set of attributions (order-insensitive, value terms verbatim) and
    whose conclusion is the queried target and value.
    """

    def __init__(self, judgments: list[Judgment]):
        for j in judgments:
            if j.edge_items() or j.intervention_item() is not None:
                raise OracleError(
                    "judgment-db entries must have attribution-only contexts"
                )
        self.judgments = list(judgments)

    def query(self, q: OracleQuery) -> Fraction:
        wanted = frozenset(q.attributions.attributions)
        probs = {
            j.prob
            for j in self.judgments
            if frozenset(a.attribution for a in j.attr_items()) == wanted
            and j.target == q.target
            and j.value == q.target_value
        }
        if not probs:
            raise NoMatchingJudgment(f"no judgment for {q.target} over the queried data point")
        if len(probs) > 1:
            raise ConflictingJudgments(
                f"conflicting probabilities {sorted(probs)} for one query"
            )
        return probs.pop()


# ---------------------------------------------------------------------------
# External command.


class ExternalCommandOracle:
    """Bridges to an opaque classifier via a one-shot subprocess.

    Each query spawns the command, writes one JSON request line to stdin and
    reads one JSON response line `{"probability": "<decimal or n/m>"}`.
    """

    def __init__(self, argv: list[str]):
        if not argv:
            raise OracleError("empty oracle command")
        self.argv = list(argv)
        env_ms = os.environ.get("CF_ORACLE_TIMEOUT_MS")
        try:
            self.timeout = float(env_ms) / 1000.0 if env_ms else DEFAULT_TIMEOUT_S
        except ValueError:
            self.timeout = float("nan")
        if not 0 < self.timeout < float("inf"):
            raise OracleError(f"CF_ORACLE_TIMEOUT_MS is not a positive number: {env_ms!r}")

    def query(self, q: OracleQuery) -> Fraction:
        request = json.dumps(
            {
                "attributions": [
                    {"var": a.var, "value": render_valueterm(a.value)}
                    for a in q.attributions
                ],
                "target": q.target,
                "value": render_valueterm(q.target_value),
            }
        )
        try:
            proc = subprocess.run(
                self.argv,
                input=request + "\n",
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except (OSError, subprocess.TimeoutExpired) as e:
            raise OracleError(f"oracle command failed: {e}")
        if proc.returncode != 0:
            raise OracleError(
                f"oracle command exited with {proc.returncode}: {proc.stderr.strip()}"
            )
        line = proc.stdout.strip().splitlines()
        if not line:
            raise OracleError("oracle command produced no response")
        try:
            doc = json.loads(line[0])
            raw = doc["probability"]
        except (ValueError, KeyError, TypeError, RecursionError) as e:
            raise OracleError(f"malformed oracle response: {e}")
        try:
            return parse_probability_literal(str(raw))
        except ParseError as e:
            raise OracleError(f"bad probability in oracle response: {e}")
