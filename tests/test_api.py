"""The public API: every exported name exists, and no module imports a name
it never reads."""

from __future__ import annotations

import ast
from pathlib import Path

import algebroidkit
from algebroidkit import cli


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


def _references(tree: ast.Module):
    """(name, line) of every name the module reads, imports, reaches as an
    attribute, or spells as a string constant (a dotted one part by part)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in (node.asname or node.name).split("."):
                yield part, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if all(part.isidentifier() for part in node.value.split(".")):
                for part in node.value.split("."):
                    yield part, node.lineno


def _definitions(tree: ast.Module):
    """(name, node, owning class or None) of every module-level function and
    class and every method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item, node.name


def test_no_dead_definitions():
    """Every module-level function and class of the package, and every method
    whose name no other class defines, is named somewhere outside its own
    definition: in the package, the tests or the benchmark harness."""
    root = Path(__file__).resolve().parents[1]
    package = sorted(root.glob("src/algebroidkit/*.py"))
    trees = {
        path: ast.parse(path.read_text())
        for path in package + sorted(root.glob("tests/*.py")) + sorted(root.glob("perfbench/*.py"))
    }
    references = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            references.setdefault(name, []).append((path, line))
    definitions = [(path, *d) for path in package for d in _definitions(trees[path])]
    classes_defining = {}
    for _, name, _, owner in definitions:
        if owner is not None:
            classes_defining.setdefault(name, set()).add(owner)
    dead = []
    for path, name, node, owner in definitions:
        if name.startswith("__") and name.endswith("__"):
            continue
        if owner is not None and len(classes_defining[name]) > 1:
            continue
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        if not any(
            ref_path != path or not start <= line <= node.end_lineno
            for ref_path, line in references.get(name, [])
        ):
            where = f"{owner}.{name}" if owner else name
            dead.append(f"{path.relative_to(root)}:{node.lineno}: {where}")
    assert dead == []


def _functions(tree: ast.Module):
    """(function node, its parameters) of every function and method of the
    module, nested ones included; a method's receiver (its first parameter,
    bound by the call) is left out."""
    methods = {
        id(item)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            yield node, params[1:] if id(node) in methods else params


def test_no_unread_parameters():
    """Every parameter of a function or method of the package is read by its
    body.  Dunder methods, whose signature the language sets, lambdas, and the
    (model, caps, args) signature that ``cli.COMMANDS`` dispatches with are
    exempt."""
    root = Path(__file__).resolve().parents[1]
    commands = {f.__name__ for f in cli.COMMANDS.values()}
    unread = []
    for path in sorted(root.glob("src/algebroidkit/*.py")):
        tree = ast.parse(path.read_text())
        for node, params in _functions(tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if path.name == "cli.py" and node.name in commands:
                assert params == ["model", "caps", "args"], node.name
                continue
            read = {
                n.id
                for statement in node.body
                for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [f"{path.relative_to(root)}:{node.lineno}: {node.name}({p})" for p in params if p not in read]
    assert unread == []
