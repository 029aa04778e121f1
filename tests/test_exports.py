import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import helpers
import homcollapse

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_resolves_once():
    # a name left in __all__ after its definition is deleted fails here
    names = homcollapse.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(homcollapse, n)] == []


def test_reference_oracles_are_not_library_names():
    # an oracle moved out of the library into helpers.py, such as hom_json or
    # cell_vertex_sets, leaves no copy behind in any module of the package
    oracles = {n for n, v in vars(helpers).items() if inspect.isfunction(v) and v.__module__ == "helpers"}
    assert {"cell_vertex_sets", "hom_json"} <= oracles
    for info in pkgutil.iter_modules(homcollapse.__path__):
        assert oracles.isdisjoint(vars(importlib.import_module(f"homcollapse.{info.name}"))), info.name


def unused_imports(source: str) -> list[str]:
    """The names that source imports but never reads, leaving out those
    its __all__ lists and __future__ features."""
    tree = ast.parse(source)
    imported = {}  # bound name: line
    exported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read | exported]


def test_every_import_is_used():
    found = {
        str(path.relative_to(ROOT)): names
        for tree in ("src", "tests")
        for path in sorted((ROOT / tree).rglob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def test_unused_imports_finds_what_is_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import json as j\n"
        "from math import pi, tau as t\n"
        "__all__ = ['t']\n"
        "print(os.sep, pi)\n"
    )
    assert unused_imports(source) == ["j (line 3)"]
