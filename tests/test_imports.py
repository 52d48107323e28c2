"""Every import in the package is used (a stand-in for pyflakes' F401).

An import counts as used when its name is read anywhere in the scope that
imports it: the module for a top-level import, the function for a local
one. A re-export is marked with `# noqa: F401` on the import line.
"""

import ast
from pathlib import Path

import pytest

import collabnet

SOURCES = sorted(Path(collabnet.__file__).parent.glob("*.py"))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_imports(scope):
    """Import statements in `scope`, leaving out those of functions nested in it."""
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, FUNCTIONS):
            yield from own_imports(child)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    unused = []
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)]:
        names = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for node in own_imports(scope):
            if (getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in lines[node.lineno - 1]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in names:
                    unused.append(f"line {node.lineno}: {bound}")
    return sorted(unused)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_sees_unused_and_allows_marked_reexports():
    source = ("from typing import Iterable, Sequence\n"
              "from .longit import read_stats_csv  # noqa: F401\n"
              "def f(x: Sequence):\n"
              "    import json\n"
              "    return x\n"
              "def g():\n"
              "    import csv\n"
              "    return csv, json\n")
    assert unused_imports(source) == ["line 1: Iterable", "line 4: json"]
