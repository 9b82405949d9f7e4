"""Spans around cfcheck's public layer functions, installed from outside.

`Tracer.active()` replaces each traced function with a wrapper under every
name it is looked up by (`cfcheck.engine.descendants` and
`cfcheck.kernel.descendants` as well as `cfcheck.closure.descendants`), and
puts the originals back when the block ends.  A span is
`[name, start, end, parent, op, ok]`: the parent is the index of the
enclosing span (-1 at top level), `op` the benchmark case it belongs to and
`ok` false when the call raised.  Spans stay in memory until `write()`.

Hot leaf helpers (`value_matches`, `check_token`, `CausalGraph.parents`,
`tokenize`) are not wrapped: each call costs about a microsecond, so a
span per call would measure the tracer rather than cfcheck.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); "Class.attr" patches the class attribute.
# `parse_case_or_graph` has no metric of its own: its span keeps graph
# parsing out of `cli.self_s` on closure-report.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("cli", "load_oracle", "oracle.load"),
    ("dsl", "parse_case", "dsl.parse_case"),
    ("dsl", "parse_case_or_graph", "dsl.parse_case_or_graph"),
    ("dsl", "parse_proof", "dsl.parse_proof"),
    ("dsl", "parse_judgment", "dsl.parse_judgment"),
    ("dsl", "render_proof", "dsl.render_proof"),
    ("dsl", "render_judgment", "dsl.render_judgment"),
    ("engine", "check_case", "engine.check_case"),
    ("engine", "derive_counterfactual", "engine.derive_counterfactual"),
    ("engine", "build_candidate", "engine.build_candidate"),
    ("engine", "verify_candidate", "engine.verify_candidate"),
    ("kernel", "check_proof", "kernel.check_proof"),
    ("kernel", "apply_c_weakening", "kernel.apply_c_weakening"),
    ("kernel", "apply_i_cut", "kernel.apply_i_cut"),
    ("kernel", "apply_tri_cut", "kernel.apply_tri_cut"),
    ("kernel", "apply_v_cut", "kernel.apply_v_cut"),
    ("closure", "descendants", "closure.descendants"),
    ("closure", "intervene_graph", "closure.intervene_graph"),
    ("closure", "mediate_closure", "closure.mediate_closure"),
    ("model", "CausalGraph.__init__", "model.CausalGraph.init"),
    ("model", "CausalGraph.children", "model.CausalGraph.children"),
    ("model", "Judgment.__eq__", "model.Judgment.eq"),
    ("oracle", "CsvFrequencyOracle.query", "oracle.query"),
    ("oracle", "JudgmentDbOracle.query", "oracle.query"),
]

RULES = (
    "kernel.apply_c_weakening",
    "kernel.apply_i_cut",
    "kernel.apply_tri_cut",
    "kernel.apply_v_cut",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._t0 = perf_counter()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, True]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = False
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def _install(self) -> list[tuple[object, str, object]]:
        modules = [m for k, m in list(sys.modules.items()) if k == "cfcheck" or k.startswith("cfcheck.")]
        patched = []
        for mod_name, attr, span in TARGETS:
            mod = sys.modules[f"cfcheck.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(span, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        patched.append((m, key, original))
                        setattr(m, key, wrapper)
        return patched

    @contextlib.contextmanager
    def active(self, op: int):
        """Trace every wrapped call made inside the block as case `op`."""
        patched = self._install()
        self._op = op
        try:
            yield self
        finally:
            for obj, key, original in reversed(patched):
                setattr(obj, key, original)
            self._op = -1

    def write(self, path) -> None:
        t0 = self._t0
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op, ok in self.spans:
                f.write(json.dumps([name, start - t0, end - t0, parent, op, ok]) + "\n")


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds (duration minus
    the time its child spans cover) and calls that raised."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})
    for i, (name, start, end, _, _, ok) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child[i]
        row["errors"] += not ok
    out["engine.proof_steps"]["calls"] = sum(
        1
        for name, _, _, parent, _, ok in spans
        if ok and name in RULES and parent >= 0 and spans[parent][0] == "engine.verify_candidate"
    )
    return out


# Per-layer metrics as (metric, span name, field, unit); values are per case
# unless the unit says otherwise.
LAYER_METRICS = [
    ("closure.descendants.calls", "closure.descendants", "calls", "count/case"),
    ("closure.descendants.s", "closure.descendants", "s", "s/case"),
    ("model.CausalGraph.children.calls", "model.CausalGraph.children", "calls", "count/case"),
    ("model.CausalGraph.children.s", "model.CausalGraph.children", "s", "s/case"),
    ("closure.intervene_graph.calls", "closure.intervene_graph", "calls", "count/case"),
    ("closure.intervene_graph.s", "closure.intervene_graph", "s", "s/case"),
    ("kernel.apply_v_cut.calls", "kernel.apply_v_cut", "calls", "count/case"),
    ("kernel.apply_v_cut.s", "kernel.apply_v_cut", "s", "s/case"),
    ("kernel.apply_tri_cut.calls", "kernel.apply_tri_cut", "calls", "count/case"),
    ("kernel.apply_tri_cut.s", "kernel.apply_tri_cut", "s", "s/case"),
    ("engine.verify_candidate.self_s", "engine.verify_candidate", "self_s", "s/case"),
    ("engine.build_candidate.s", "engine.build_candidate", "s", "s/case"),
    ("engine.derive_counterfactual.s", "engine.derive_counterfactual", "s", "s/case"),
    ("kernel.check_proof.s", "kernel.check_proof", "s", "s/case"),
    ("model.Judgment.eq.calls", "model.Judgment.eq", "calls", "count/case"),
    ("model.Judgment.eq.s", "model.Judgment.eq", "s", "s/case"),
    ("dsl.render_proof.s", "dsl.render_proof", "s", "s/case"),
    ("dsl.render_judgment.calls", "dsl.render_judgment", "calls", "count/case"),
    ("dsl.parse_proof.s", "dsl.parse_proof", "s", "s/case"),
    ("dsl.parse_judgment.calls", "dsl.parse_judgment", "calls", "count/case"),
    ("dsl.parse_judgment.s", "dsl.parse_judgment", "s", "s/case"),
    ("dsl.parse_case.s", "dsl.parse_case", "s", "s/case"),
    ("oracle.query.calls", "oracle.query", "calls", "count/case"),
    ("oracle.query.s", "oracle.query", "s", "s/case"),
    ("oracle.query.errors", "oracle.query", "errors", "count/case"),
    ("closure.mediate_closure.s", "closure.mediate_closure", "s", "s/case"),
    ("cli.self_s", "cli.main", "self_s", "s/case"),
    ("model.CausalGraph.init.calls", "model.CausalGraph.init", "calls", "count/case"),
    ("model.CausalGraph.init.s", "model.CausalGraph.init", "s", "s/case"),
    ("engine.proof_steps", "engine.proof_steps", "calls", "count/case"),
]


def layer_metrics(spans: list[list], cases: int) -> dict[str, dict]:
    """Every per-layer metric derived from the spans of `cases` traced cases."""
    table = summarize(spans)
    metrics = {}
    for metric, span, field, unit in LAYER_METRICS:
        metrics[metric] = {"value": table[span][field] / cases if span in table else 0, "unit": unit}
    attempts = sum(table[r]["calls"] for r in RULES if r in table)
    failures = sum(table[r]["errors"] for r in RULES if r in table)
    metrics["kernel.rule_ok_ratio"] = {
        "value": (attempts - failures) / attempts if attempts else 0.0,
        "unit": "ratio",
    }
    load = table.get("oracle.load")
    metrics["oracle.load.s"] = {"value": load["s"] / load["calls"] if load else 0.0, "unit": "s"}
    return metrics
