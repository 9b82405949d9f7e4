"""The modules form layers: each imports only from the layers below it, and
only at module level, so there is no import cycle to break at call time."""

import ast
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
