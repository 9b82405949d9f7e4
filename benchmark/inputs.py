"""Seeded input generation for all three workloads.

The same seed gives byte-identical files.  Everything is written to disk,
and every known answer computed, before any timer starts.  Each input
records its size (nodes, edges, rows) so a run reports what it measured.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import reference as ref

# Graph sizes cycle in a fixed order, so every run covers the same mix of
# sizes whatever the seed; the seed only changes edges and values.
PROOF_SIZES = (40, 50, 60, 45, 55)
CLOSURE_SIZES = (100, 150, 200, 125, 175)
FORGE_EVERY = 4  # case k is forged when k % FORGE_EVERY == FORGE_EVERY - 1
PROOF_POOL = 100
CLOSURE_POOL = 50

CSV_COLUMNS = 11
CSV_ROWS = 20_000
CSV_POOL = 1000
CANDIDATE_EVERY = 4  # case k carries a rejected candidate when k % CANDIDATE_EVERY == 1
EPSILON = Fraction(1, 20)


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def roadmap_dag(rng: random.Random, n: int) -> tuple[list[str], ref.Edges]:
    """Nodes v0..v{n-1}, edge vi -> vj for j in i+1..i+5 with probability 0.6."""
    nodes = [f"v{i}" for i in range(n)]
    edges = [
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, min(i + 6, n))
        if rng.random() < 0.6
    ]
    return nodes, edges


def graph_text(nodes: list[str], edges: ref.Edges) -> str:
    covered = {v for e in edges for v in e}
    lines = [f"  {s} -> {d};" for s, d in edges]
    lines += [f"  {v};" for v in nodes if v not in covered]
    return "graph {\n" + "\n".join(lines) + "\n}\n"


def _block(name: str, attrs: list[tuple[str, str]]) -> str:
    return f"{name} {{\n" + "".join(f"  {v} = {t};\n" for v, t in attrs) + "}\n"


def _prob(rng: random.Random) -> tuple[str, Fraction]:
    m = rng.randrange(1, 1000)
    return f"0.{m:03d}", Fraction(m, 1000)


# ---------------------------------------------------------------------------
# proof-roundtrip


@dataclass
class ProofInput:
    case: str
    db: str
    proof: str
    n: int
    edges: int
    forged: bool
    target: str
    reduced: list[tuple[str, str]]
    steps: int
    q: Fraction


def _proof_value(rng: random.Random) -> str:
    r = rng.random()
    a, b = rng.sample(range(4), 2)
    if r < 0.75:
        return f"x{a}"
    if r < 0.875:
        return f"x{a} + x{b}"
    return f"!x{a}"


def proof_inputs(seed: int, workdir: Path, count: int = PROOF_POOL, sizes=PROOF_SIZES) -> list[ProofInput]:
    out = []
    for k in range(count):
        rng = _rng(seed, "proof", k)
        n = sizes[k % len(sizes)]
        nodes, edges = roadmap_dag(rng, n)
        iv, target = nodes[n // 2], nodes[-1]
        factual = [(v, _proof_value(rng)) for v in nodes[:-1]]
        imposed = f"z{rng.randrange(3)}"
        p_text, _ = _prob(rng)
        q_text, q = _prob(rng)
        reduced = ref.reduced_point(nodes, edges, factual, iv, imposed)
        case = workdir / f"proof{k}.cfc"
        db = workdir / f"proof{k}.db"
        case.write_text(
            graph_text(nodes, edges)
            + _block("factual", factual)
            + f"intervene {iv} = {imposed};\ntarget {target} = yes;\nfactual_prob {p_text};\n"
        )
        db.write_text(
            "".join(
                ", ".join(f"{v} = {t}" for v, t in attrs) + f" |- {target} = yes @ {prob};\n"
                for attrs, prob in ((factual, p_text), (reduced, q_text))
            )
        )
        out.append(
            ProofInput(
                case=str(case),
                db=str(db),
                proof=str(workdir / f"proof{k}.json"),
                n=n,
                edges=len(edges),
                forged=k % FORGE_EVERY == FORGE_EVERY - 1,
                target=target,
                reduced=reduced,
                steps=ref.proof_steps(edges, iv, reduced),
                q=q,
            )
        )
    return out


# ---------------------------------------------------------------------------
# csv-audit


@dataclass
class CsvTable:
    path: str
    columns: list[str]
    rows: list[list[str]]
    index: ref.RowIndex


@dataclass
class CsvInput:
    text: str
    n: int
    edges: int
    expected: tuple  # see reference.expected_check


def csv_table(seed: int, workdir: Path, rows: int = CSV_ROWS) -> CsvTable:
    """11 columns over 2-5 tokens each; a column copies a function of the two
    before it with probability 0.6, so frequencies shift with conditioning."""
    rng = _rng(seed, "table")
    columns = [f"c{j}" for j in range(CSV_COLUMNS)]
    domains = [[f"t{i}" for i in range(2 + j % 4)] for j in range(CSV_COLUMNS)]
    table = []
    for _ in range(rows):
        idx: list[int] = []
        for j, dom in enumerate(domains):
            if j >= 2 and rng.random() < 0.6:
                idx.append((idx[j - 1] + 2 * idx[j - 2]) % len(dom))
            else:
                idx.append(rng.randrange(len(dom)))
        table.append([domains[j][i] for j, i in enumerate(idx)])
    path = workdir / "table.csv"
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(columns)
        w.writerows(table)
    return CsvTable(str(path), columns, table, ref.RowIndex(columns, table))


def _csv_value(rng: random.Random, observed: str, domain: list[str]) -> tuple[str, frozenset[str]]:
    """A value term that still matches `observed`: the atom itself, a sum
    holding it, or the complement of another token."""
    r = rng.random()
    other = rng.choice([t for t in domain if t != observed])
    if r < 0.7:
        return observed, frozenset({observed})
    if r < 0.85:
        pair = [observed, other]
        rng.shuffle(pair)
        return f"{pair[0]} + {pair[1]}", frozenset(pair)
    return f"!{other}", frozenset(domain) - {other}


def csv_inputs(seed: int, table: CsvTable, count: int = CSV_POOL) -> list[CsvInput]:
    out = []
    domains = table.index.domains
    for k in range(count):
        rng = _rng(seed, "csv", k)
        order = rng.sample(table.columns, rng.randint(5, 8))
        edges = [(a, b) for i, a in enumerate(order) for b in order[i + 1 :] if rng.random() < 0.35]
        target = order[-1]
        others = order[:-1]

        def effects(v):
            return ref.descendants(order, edges, v) - {v, target}

        if not any(effects(v) for v in others):
            edges.append((others[0], others[1]))
        iv = rng.choice([v for v in others if effects(v)])
        row = dict(zip(table.columns, rng.choice(table.rows)))
        factual = [(v, _csv_value(rng, row[v], domains[v])) for v in others]
        imposed = rng.choice([t for t in domains[iv] if t != row[iv]])
        reduced = ref.reduced_point(order, edges, factual, iv, (imposed, frozenset({imposed})))
        candidate: Optional[list] = None
        if k % CANDIDATE_EVERY == 1:
            hit = rng.choice(sorted(effects(iv)))
            candidate = reduced + [(v, t) for v, t in factual if v == hit]
        sigma = candidate if candidate is not None else reduced

        def accepted(attrs):
            return [(v, acc) for v, (_, acc) in attrs]

        expected = ref.expected_check(
            table.index,
            accepted(factual),
            accepted(sigma),
            (target, frozenset({row[target]})),
            EPSILON,
            candidate_rejected=candidate is not None,
        )
        text = (
            graph_text(order, edges)
            + _block("factual", [(v, t) for v, (t, _) in factual])
            + f"intervene {iv} = {imposed};\ntarget {target} = {row[target]};\n"
        )
        if candidate is not None:
            text += _block("candidate", [(v, t) for v, (t, _) in candidate])
        out.append(CsvInput(text, len(order), len(edges), expected))
    return out


# ---------------------------------------------------------------------------
# closure-report


@dataclass
class ClosureInput:
    path: str
    nodes: list[str]
    edges: ref.Edges


def closure_inputs(seed: int, workdir: Path, count: int = CLOSURE_POOL, sizes=CLOSURE_SIZES) -> list[ClosureInput]:
    out = []
    for k in range(count):
        rng = _rng(seed, "closure", k)
        nodes, edges = roadmap_dag(rng, sizes[k % len(sizes)])
        path = workdir / f"graph{k}.cfc"
        path.write_text(graph_text(nodes, edges))
        out.append(ClosureInput(str(path), nodes, edges))
    return out
