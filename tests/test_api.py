"""The public API: every exported name exists, and no module imports a name
it never reads."""

from __future__ import annotations

import ast
from pathlib import Path

import algebroidkit


def test_every_exported_name_resolves():
    missing = [name for name in algebroidkit.__all__ if not hasattr(algebroidkit, name)]
    assert missing == []
    assert len(set(algebroidkit.__all__)) == len(algebroidkit.__all__)


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from algebroidkit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(algebroidkit.__all__)


def _imported_names(tree: ast.Module, lines):
    """(name, line) of every name an import binds, ``__future__`` imports and
    lines marked ``# noqa: F401`` left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in "".join(lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            yield (alias.asname or alias.name).split(".")[0], node.lineno


def _read_names(tree: ast.Module):
    """Every name the module loads, and the strings of its ``__all__``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts}
    return read


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted(root.glob("src/algebroidkit/*.py")) + sorted(root.glob("tests/*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        read = _read_names(tree)
        for name, line in _imported_names(tree, text.splitlines()):
            if name not in read:
                unused.append(f"{path.relative_to(root)}:{line}: {name}")
    assert unused == []
