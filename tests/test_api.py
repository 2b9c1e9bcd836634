"""The public API: every exported name exists, no module imports a name it
never reads, and every function of the package is entered by a command run
or has a stated reason not to be."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import algebroidkit
from algebroidkit import algebra, algebroid, cli, fixtures, linfty, modules, symtensor


def test_every_exported_name_resolves():
    missing = [name for name in algebroidkit.__all__ if not hasattr(algebroidkit, name)]
    assert missing == []
    assert len(set(algebroidkit.__all__)) == len(algebroidkit.__all__)


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from algebroidkit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(algebroidkit.__all__)


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    """A command starts without ``dataclasses`` and the ``inspect`` it
    loads (with ``ast``, ``dis`` and ``tokenize``), a large share of its
    start-up: in a fresh interpreter, importing ``algebroidkit.cli`` loads
    neither."""
    root = Path(__file__).resolve().parents[1]
    code = "import sys, algebroidkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_report_records_keep_their_former_dataclass_behaviour():
    """The report classes are plain classes, with what their dataclasses
    gave: the optional fields' defaults, a fresh list per instance,
    equality and repr over the fields, and no hash."""
    from algebroidkit.reports import CheckResult, Report, ResidualEntry

    a, b = CheckResult("c", True), CheckResult("c", True)
    assert (a.residuals, a.detail, a.elapsed_ms) == ([], "", 0.0)
    assert a == b and a.residuals is not b.residuals
    assert a != CheckResult("c", True, detail="d") and a != Report("c", {})
    assert repr(a) == "CheckResult(name='c', passed=True, residuals=[], detail='', elapsed_ms=0.0)"
    entry = ResidualEntry("D^2", 1, "x", "1")
    assert repr(entry) == "ResidualEntry(location='D^2', weight=1, word='x', coefficient='1')"
    left, right = Report("r", {"weight": 2}), Report("r", {"weight": 2})
    assert left.checks == [] and left.checks is not right.checks
    left.add(a)
    assert left != right
    right.add(b)
    assert left == right
    for record in (a, entry, Report("r", {})):
        with pytest.raises(TypeError):
            hash(record)


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


def test_no_dead_classes():
    """Every module-level class of the package is named somewhere outside its
    own definition: in the package, the tests or the benchmark harness.
    Functions and methods are held by ``test_every_src_function_is_reached``,
    which asks for more: that a run enters them."""
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
    dead = []
    for path in package:
        for node in trees[path].body:
            if not isinstance(node, ast.ClassDef):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if not any(
                ref_path != path or not start <= line <= node.end_lineno
                for ref_path, line in references.get(node.name, [])
            ):
                dead.append(f"{path.relative_to(root)}:{node.lineno}: {node.name}")
    assert dead == []


# The benchmark harness reads these by name: ``perfbench/tracer.py`` wraps
# them and ``layer_metrics`` reads their call counts.  They leave with
# ROADMAP items 1 and 14, which change the harness.
PERFBENCH = "read by perfbench; leaves with ROADMAP item 1/14"

# module.qualified name -> why no run needs to enter it
ALLOWED_UNREACHED = {
    # read by the benchmark harness, and the helpers they alone call
    "algebroid.AlgebroidStructure.anchor": PERFBENCH,
    "algebroid.AlgebroidStructure.bracket": PERFBENCH,
    "geometry.GeometricModel.nabla_bar": PERFBENCH,
    "geometry.GeometricModel._nabla_hat": PERFBENCH + " (COUNT_METHODS: GeometricModel.nabla_bar reads it)",
    "linfty.ShiftedDerDGLA.jacobi_residual": PERFBENCH + " (SPAN_METHODS)",
    "linfty.ShiftedDerDGLA.__init__": PERFBENCH + " (SPAN_METHODS: ShiftedDerDGLA.jacobi_residual needs an instance)",
    "linfty.ShiftedDerDGLA.basis": PERFBENCH + " (SPAN_METHODS: ShiftedDerDGLA.jacobi_residual reads it)",
    "linfty.ShiftedDerDGLA.bracket": PERFBENCH + " (SPAN_METHODS: ShiftedDerDGLA.jacobi_residual reads it)",
    "linfty.ShiftedDerDGLA.zero": PERFBENCH + " (SPAN_METHODS: ShiftedDerDGLA.jacobi_residual reads it)",
    "linfty.d_A_derivation": PERFBENCH + " (SPAN_METHODS: ShiftedDerDGLA.__init__ reads it)",
    "linfty.AlgebraDerivation.commutator": PERFBENCH + " (SPAN_METHODS: ShiftedDerDGLA.bracket reads it)",
    "linfty.AlgebraDerivation.compose": PERFBENCH + " (SPAN_METHODS: AlgebraDerivation.commutator reads it)",
    "linfty.AlgebraDerivation.apply": PERFBENCH + " (SPAN_METHODS: AlgebraDerivation.compose reads it)",
    "linfty._unshuffle_sum": PERFBENCH + " (SPAN_METHODS: ShiftedDerDGLA.jacobi_residual reads it)",
    "linfty.BracketTable.lookup": PERFBENCH + " (COUNT_METHODS: AlgebroidStructure.anchor and .bracket read it)",
    "modules.pair_dual": PERFBENCH,
    "modules.ModuleElement.coefficient": PERFBENCH + " (pair_dual reads it)",
    "modules._koszul_twist": PERFBENCH + " (pair_dual reads it)",
    "modules.multilinear_extend": PERFBENCH,
    "algebra.AlgebraElement.a_mul": PERFBENCH + " (multilinear_extend reads it)",
    "symtensor.evaluate": PERFBENCH,
    "symtensor._evaluate_parts": PERFBENCH + " (evaluate reads it)",
    "symtensor._evaluate_parts.<locals>.read": PERFBENCH + " (evaluate reads it)",
    "symtensor.from_values": PERFBENCH,
    "modules.FreeModule.generator": PERFBENCH + " (from_values reads it)",
    "symtensor.SymElement.data": PERFBENCH + " (its tracer counts terms with it)",
    "signs.skew_sign": PERFBENCH + " (COUNT_ONLY_FUNCTIONS; layer_metrics' signs.sign_calls)",
    "signs.sym_sign": PERFBENCH + " (COUNT_ONLY_FUNCTIONS; layer_metrics' signs.sign_calls)",
    "signs.enumerate_unshuffles": PERFBENCH + " (COUNT_ONLY_FUNCTIONS; layer_metrics' signs.unshuffle_calls)",
    "signs.enumerate_unshuffles.<locals>.fill": PERFBENCH + " (COUNT_ONLY_FUNCTIONS: enumerate_unshuffles reads it)",
    "signs.unshuffles_with_tail": PERFBENCH + " (COUNT_ONLY_FUNCTIONS; layer_metrics' signs.unshuffle_calls)",
    "signs.Permutation.__init__": PERFBENCH + " (COUNT_ONLY_FUNCTIONS: enumerate_unshuffles makes them)",
    "signs.Permutation.identity": PERFBENCH + " (COUNT_ONLY_FUNCTIONS: unshuffles_with_tail reads it)",
    "signs.Permutation.size": PERFBENCH + " (COUNT_ONLY_FUNCTIONS: sym_sign reads it)",
    "signs.Permutation.signature": PERFBENCH + " (COUNT_ONLY_FUNCTIONS: skew_sign reads it)",
    # the object protocol: what a debugger, a set or an assignment calls
    "algebra.BaseAlgebra.__repr__": "repr, for debugging",
    "algebra.Combination.__hash__": "hash, for a set of elements",
    "algebra.Combination.__setattr__": "refuses a write to an immutable element",
    "algebra.Combination._compatible": "refuses an element of another space",
    "linfty.AlgebraDerivation.__repr__": "repr, for debugging",
    "linfty.BracketTable.__ne__": "!=, kept consistent with the table's __eq__",
    "modules.FreeModule.__repr__": "repr, for debugging",
    "modules.ModuleElement.__repr__": "repr, for debugging",
    "scalars.Scalar.__hash__": "hash, for a set of scalars",
    "reports._Record.__eq__": "==, for comparing reports and their entries",
    "reports._Record.__repr__": "repr, for debugging",
    "signs.Permutation.__eq__": "==, for comparing permutations",
    "signs.Permutation.__hash__": "hash, for a set of permutations",
    "signs.Permutation.__repr__": "repr, for debugging",
    "signs.Permutation.__setattr__": "refuses a write to an immutable permutation",
    "symtensor.DerivationD.__hash__": "refuses to hash a mutable-table operator",
    "symtensor.SymElement.__repr__": "repr, and the label of a failing lemma's residual",
    # failure paths that no shipped model meets
    "geometry.GeometricModel.bidegree": "names the bidegree of a refused tensor word",
    "geometry._grid": "lists the residuals of a failing lemma",
    "geometry._slice": "lists the residuals of a failing lemma",
    "symtensor.SymElement._key_degree": "read by degree() for the message of a value of the wrong degree",
    "cli._leibniz_entries": "the leibniz lines are empty by construction (ROADMAP item 9)",
}


def _src_functions():
    """{module.qualified name: (file, line)} of every def of the package,
    methods and nested functions included, each named as its code object's
    ``co_qualname``."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found[f"{path.stem}.{name}"] = (path.name, child.lineno)
                visit(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(Path(algebroidkit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def _entered_in_contract_runs(workloads):
    """{module.qualified name} of every package function that the shipped
    corpus writer and the report-contract runs (generated models included)
    enter, as ``sys.setprofile`` sees them."""
    from report_contract import replay, runs

    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as directory:
            fixtures.write_fixture_corpus(directory)
        replay(runs(workloads))
    finally:
        sys.setprofile(None)
    root = Path(algebroidkit.__file__).parent
    return {
        f"{Path(code.co_filename).stem}.{code.co_qualname}"
        for code in codes
        if Path(code.co_filename).parent == root
    }


def test_every_src_function_is_reached(workloads):
    """Every function of the package is entered by a command or by the
    benchmark's model set-up: the shipped corpus writer and the report-contract
    runs, which cover every command on every fixture and generated model,
    the witnesses and the refusals.  ``ALLOWED_UNREACHED`` names the rest,
    each with its reason, and names only functions that exist and that no
    run enters, so it cannot outlive the code."""
    defined = _src_functions()
    entered = _entered_in_contract_runs(workloads)
    unreached = sorted(
        f"{file}:{line}: {name}"
        for name, (file, line) in defined.items()
        if name not in entered and name not in ALLOWED_UNREACHED
    )
    assert unreached == []
    assert sorted(name for name in ALLOWED_UNREACHED if name not in defined) == []
    assert sorted(name for name in ALLOWED_UNREACHED if name in entered) == []


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


def _calls_by_name(trees):
    """{callee name: [call node]} of every call in the trees, the callee
    named by a plain name or by the attribute of a method call."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, param: str, position: "int | None") -> bool:
    """Whether call binds param, the function's positional parameter at
    position (None for a keyword-only one), or might through * or **."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def _unpassed(call_globs, is_knob):
    """The parameters of the package whose default is_knob accepts and that
    no call in the files of call_globs passes.  A constructor is called by
    its class name.  ``cli.main``, whose argv only the tests and the console
    entry point set, is exempt."""
    root = Path(__file__).resolve().parents[1]
    trees = {path: ast.parse(path.read_text()) for path in sorted(root.glob("src/algebroidkit/*.py"))}
    callers = [ast.parse(path.read_text()) for pattern in call_globs for path in sorted(root.glob(pattern))]
    calls = _calls_by_name(callers)
    unpassed = []
    for path, tree in trees.items():
        owners = {
            id(item): node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node, params in _functions(tree):
            if path.name == "cli.py" and node.name == "main":
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            defaults = dict(zip(positional[len(positional) - len(a.defaults):], a.defaults))
            defaults.update((p, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
            callee = owners[id(node)] if node.name == "__init__" else node.name
            for p, default in defaults.items():
                if p.arg not in params or not is_knob(default):
                    continue
                position = params.index(p.arg) if p in positional else None
                if not any(_passes(call, p.arg, position) for call in calls.get(callee, [])):
                    unpassed.append(f"{path.relative_to(root)}:{node.lineno}: {node.name}({p.arg})")
    return unpassed


def test_no_unpassed_optional_parameters():
    """Every parameter of the package that defaults to None is passed by some
    call in the package: an option that no caller sets is a knob only the
    tests turn."""
    assert _unpassed(["src/algebroidkit/*.py"], lambda d: isinstance(d, ast.Constant) and d.value is None) == []


def test_no_unpassed_defaulted_parameters():
    """Every parameter of the package that has a default is passed by some
    call in the package, the tests or the benchmark harness: a parameter
    that nothing sets is a constant, and a switch that nothing sets is dead
    code behind its other value."""
    calls = ["src/algebroidkit/*.py", "tests/*.py", "perfbench/*.py"]
    assert _unpassed(calls, lambda d: True) == []


def _degree_error_handlers(tree: ast.Module):
    """(innermost enclosing function, try statement) of every handler of the
    module that catches DegreeError, alone or in a tuple."""
    def catches(handler):
        kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return any(isinstance(k, ast.Name) and k.id == "DegreeError" for k in kinds)

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node
        if isinstance(node, ast.Try) and any(h.type is not None and catches(h) for h in node.handlers):
            yield function, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, None)


def test_degree_errors_are_caught_in_one_place():
    """The degree rule is written once: ``algebra._degree_problem`` turns a
    ``DegreeError`` of ``.degree()`` into a message, and the only other
    handler is the parser's refusal around the model constructor."""
    root = Path(__file__).resolve().parents[1]
    found = []
    for path in sorted(root.glob("src/algebroidkit/*.py")):
        for function, node in _degree_error_handlers(ast.parse(path.read_text())):
            calls = [n for s in node.body for n in ast.walk(s) if isinstance(n, ast.Call)]
            called = {n.func.id for n in calls if isinstance(n.func, ast.Name)}
            found.append((path.name, function.name if function else None, sorted(called)))
    assert found == [
        ("algebra.py", "_degree_problem", []),
        ("modelio.py", "parse_model", ["GeometricModel"]),
    ]


def _generator_applications(tree: ast.Module):
    """The innermost enclosing function of every X.apply(x) of the module
    whose argument x is a generator element: a call of a ``SymAlgebra``
    generator constructor (``letter``, ``scalar``), a name bound to the
    element of a loop over ``generators()``, or the parameter of a lambda
    that ``_on_generators`` calls on every generator."""

    def generator_names(node) -> set:
        names = set()
        for sub in ast.walk(node):
            if isinstance(sub, (ast.For, ast.comprehension)):
                source = sub.iter
                if (
                    isinstance(source, ast.Call)
                    and isinstance(source.func, ast.Attribute)
                    and source.func.attr == "generators"
                    and isinstance(sub.target, ast.Tuple)
                    and isinstance(sub.target.elts[-1], ast.Name)
                ):
                    names.add(sub.target.elts[-1].id)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "_on_generators":
                names.update(a.arg for lam in sub.args if isinstance(lam, ast.Lambda) for a in lam.args.args)
        return names

    def is_generator(node, names) -> bool:
        if isinstance(node, ast.Name):
            return node.id in names
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("letter", "scalar")

    def visit(node, function, names):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function, names = node.name, generator_names(node)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "apply":
            if node.args and is_generator(node.args[0], names):
                yield function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function, names)

    yield from visit(tree, None, set())


def test_no_derivation_is_applied_to_a_generator():
    """D(x) on a generator x is D's stored value (zero where none is
    stored), so ``square`` and the letters-only square of
    ``algebroid_jacobi_residual`` apply D once, to the value: no ``src/``
    function applies an operator to a generator element.  The scan finds
    the D.apply(D.apply(x)) both squares were, in a copy of that source."""
    root = Path(__file__).resolve().parents[1]
    found = sorted(
        (path.name, function)
        for path in sorted(root.glob("src/algebroidkit/*.py"))
        for function in _generator_applications(ast.parse(path.read_text()))
    )
    assert found == []
    old_squares = """
def square(D):
    D._square = _on_generators(D.algebra, lambda x: D.apply(D.apply(x)), 2 * D.degree)

def algebroid_jacobi_residual(S, arities):
    squares = {i: D.apply(D.apply(algebra.letter(i))) for i in range(carrier.rank)}

def square_components(D):
    for slot, _, label, x in D.algebra.generators():
        dd = D.apply(D.apply(x))
"""
    assert sorted(_generator_applications(ast.parse(old_squares))) == [
        "algebroid_jacobi_residual", "square", "square_components"
    ]


def test_the_element_protocol_is_written_once():
    """``algebra.Combination`` alone implements the element protocol: the
    four element types derive from it, and no class body among them defines
    a protocol method.  Only ``AlgebraElement``, whose coefficients are
    Scalars, defines ``scale`` (the benchmark counts its calls), ``a_mul``
    and the term-degree hooks.  The per-type unchecked constructors and
    ``AlgebraDerivation.degree_parts`` are gone."""
    kinds = (algebra.AlgebraElement, modules.ModuleElement, symtensor.SymElement, linfty.AlgebraDerivation)
    protocol = {
        "__setattr__", "__add__", "__sub__", "__neg__", "__eq__", "__hash__",
        "is_zero", "items", "_check", "degree", "homogeneous_parts",
    }
    on_scalars = {"scale", "a_mul", "_degrees", "_degree_terms"}
    for cls in kinds:
        assert issubclass(cls, algebra.Combination), cls
        assert not protocol & set(vars(cls)), cls
        if cls is not algebra.AlgebraElement:
            assert not on_scalars & set(vars(cls)), cls
    assert on_scalars <= set(vars(algebra.AlgebraElement))
    assert not hasattr(modules, "_module_element")
    assert not hasattr(linfty, "_derivation")
    assert not hasattr(linfty.AlgebraDerivation, "degree_parts")


def test_cli_reads_the_linfty_layer_only_for_the_decalage_line():
    """Each residual family is one library call: ``cli`` imports from
    ``linfty`` only what the decalage line of ``roundtrip`` reads, and
    reaches no ``linfty`` name as an attribute."""
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("linfty", "algebroidkit.linfty")
        for alias in node.names
    }
    assert imported == {"LInftyAlgebra", "decalage", "decalage_inverse", "same_tables"}
    assert not [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "linfty"
    ]
    assert "anchor_morphism" not in vars(algebroid)


def _calls_of(tree: ast.Module, callee: str):
    """The module-level function or class enclosing every call of callee by
    its plain name."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == callee:
                yield getattr(top, "name", None)


def test_the_ce_dictionary_is_one_transpose_each_way():
    """kappa(w) is read by the two transposes of ``algebroid``, tables to
    words and words to tables, and by the general ``from_values`` and
    ``evaluate`` (``_evaluate_parts``) of ``symtensor``, which no command
    calls; d0 is the arity-1 part of the dictionary and lives with it."""
    root = Path(__file__).resolve().parents[1]
    found = sorted(
        (path.name, function)
        for path in sorted(root.glob("src/algebroidkit/*.py"))
        for function in _calls_of(ast.parse(path.read_text()), "_word_constant")
    )
    assert found == [
        ("algebroid.py", "_letter_transpose"),
        ("algebroid.py", "_word_transpose"),
        ("symtensor.py", "_evaluate_parts"),
        ("symtensor.py", "from_values"),
    ]
    assert algebroidkit.d0_derivation is algebroid.d0_derivation
    assert not {"d0_derivation", "dual_differential_letter"} & set(vars(algebroidkit.symtensor))
    assert not hasattr(algebroidkit.modules, "from_dual_values")


def _attribute_uses(tree: ast.Module, names):
    """(module-level function or class, name) of every plain name or
    attribute among names that tree reads, calls included."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in names:
                yield getattr(top, "name", None), node.id
            elif isinstance(node, ast.Attribute) and node.attr in names:
                yield getattr(top, "name", None), node.attr


def test_sums_are_reduced_in_scalars_and_products_read_by_one_rule():
    """Every exact sum goes through the accumulator of ``scalars``, which
    alone reduces (``_reduce``).  The structure constants of the base are
    read by the product rule and the validators of ``algebra``, by the
    derivation-basis equations of ``linfty``, by the ``modelio`` serializer
    and by ``fixtures``: never by ``symtensor``, ``geometry`` or
    ``algebroid``, which multiply through ``algebra._add_product``."""
    root = Path(__file__).resolve().parents[1]
    found = set()
    for path in sorted(root.glob("src/algebroidkit/*.py")):
        if path.name != "fixtures.py":
            tree = ast.parse(path.read_text())
            found |= {(path.name, *use) for use in _attribute_uses(tree, {"_reduce", "product_basis", "_products"})}
    assert {(module, top) for module, top, name in found if name == "_reduce"} == {
        ("scalars.py", "Scalar"),
        ("scalars.py", "_reduced_items"),
    }
    assert {(module, top) for module, top, name in found if name != "_reduce"} == {
        ("algebra.py", "BaseAlgebra"),
        ("algebra.py", "_add_product"),
        ("algebra.py", "_leibniz_failures"),
        ("algebra.py", "validate_base_algebra"),
        ("linfty.py", "algebra_derivation_basis"),
        ("modelio.py", "_base_dict"),
    }


# The src/ functions beside the one finisher (``algebra._summed`` for one
# sum, ``algebra._reduced_values`` for a {key: Sums} table) that reduce a
# coefficient sum themselves, each with the reason it makes no element.
REDUCED_OUTSIDE_THE_FINISHER = {
    ("linfty.py", "algebra_derivation_basis"): "equation rows for nullspace",
    ("modelio.py", "_parse_terms"): "the {index: Scalar} dicts that BaseAlgebra takes",
    ("geometry.py", "_contraction_rows"): "(basis index, Scalar) pair rows for _add_product",
    ("geometry.py", "_dhat_rows"): "(basis index, Scalar) pair rows for _add_product",
}

# How the symmetric algebra once finished its rows beside the finisher.
_SECOND_FINISHER = """
def _reduced_row(acc):
    row = []
    for w in sorted(acc):
        coeffs = _reduced_items(acc[w])
        if coeffs:
            row.append((w, coeffs))
    return tuple(row)
"""


def _second_finishers(name: str, source: str) -> set:
    """(module, function) of every module-level function or class of source
    that calls ``scalars._reduced_items`` and is neither a finisher nor
    allowed by ``REDUCED_OUTSIDE_THE_FINISHER``."""
    finishers = {("algebra.py", "_summed"), ("algebra.py", "_reduced_values")}
    found = {(name, top) for top in _calls_of(ast.parse(source), "_reduced_items")}
    return found - finishers - set(REDUCED_OUTSIDE_THE_FINISHER)


def test_every_coefficient_table_is_finished_in_one_place():
    """An element made from summed coefficients is made by the one finisher:
    no other src/ function reduces a sum, unless the allowlist names it with
    a reason.  Every allowlist entry still reduces, and the scan flags a
    second finisher such as the former rows of ``symtensor``."""
    root = Path(__file__).resolve().parents[1]
    found, calls = set(), set()
    for path in sorted(root.glob("src/algebroidkit/*.py")):
        source = path.read_text()
        found |= _second_finishers(path.name, source)
        calls |= {(path.name, top) for top in _calls_of(ast.parse(source), "_reduced_items")}
    assert found == set()
    assert set(REDUCED_OUTSIDE_THE_FINISHER) <= calls
    assert _second_finishers("symtensor.py", _SECOND_FINISHER) == {("symtensor.py", "_reduced_row")}
