"""The modules form layers: each imports only from the layers below it, and
only at module level, so there is no import cycle to break at call time."""

import ast
from collections import Counter
from pathlib import Path

import cfcheck

LAYERS = ["model", "closure", "kernel", "dsl", "oracle", "engine", "cli", "__init__", "__main__"]
SOURCES = sorted(Path(cfcheck.__file__).parent.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in SOURCES) == sorted(LAYERS)


def test_modules_import_only_lower_layers():
    upward = []
    for path in SOURCES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
                upward += [
                    f"{path.stem} -> {name}"
                    for name in names
                    if LAYERS.index(name) >= LAYERS.index(path.stem)
                ]
    assert upward == []


def test_no_function_imports():
    inside = []
    for path in SOURCES:
        for fn in ast.walk(_parse(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside += [
                    f"{path.stem}.{fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert inside == []


def _reads(tree) -> Counter:
    """How often each name is read, as a Name or an Attribute, in `tree`."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


# Used by the benchmark alone, which reaches them by name.
BENCHMARK_ONLY = {
    "engine.build_candidate",  # benchmark/test_benchmark.py calls it, benchmark/tracing.py wraps it
    "closure.entries",  # benchmark/test_benchmark.py reads MediateRelation.entries
}


def test_every_definition_is_used_in_the_package():
    # a name is used where it is read outside its own definition, so a
    # re-export in __init__ or a recursive call alone is no use
    trees = {path.stem: _parse(path) for path in SOURCES}
    reads = sum(map(_reads, trees.values()), Counter())
    unused = [
        f"{stem}.{d.name}"
        for stem, tree in trees.items()
        if stem != "__init__"
        for d in ast.walk(tree)
        if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (d.name.startswith("__") and d.name.endswith("__"))
        and reads[d.name] == _reads(d)[d.name]
    ]
    assert sorted(unused) == sorted(BENCHMARK_ONLY)
