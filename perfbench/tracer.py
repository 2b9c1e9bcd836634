"""In-memory call tracing of the algebroidkit layers, from outside the package.

``Tracer.install`` replaces public functions and selected methods of the
package modules with wrappers.  A *span* wrapper records (id, parent,
request, name, start, end) for every call; a *count* wrapper only bumps a
counter, for calls too frequent to time one by one.  Module-level functions
are replaced at every import site (every module global and every module
level dict, e.g. ``algebroid.from_values``, ``geometry.evaluate``,
``cli.parse_model`` and ``cli.COMMANDS``); ``install`` fails if an original
is still reachable from a module afterwards.

A span's self time is its duration minus the time its direct child spans
cover.  Time spent in a count-only callee, or in a private helper, belongs
to the nearest enclosing span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional

LAYERS = (
    "scalars",
    "signs",
    "algebra",
    "modules",
    "linalg",
    "symtensor",
    "linfty",
    "algebroid",
    "geometry",
    "modelio",
    "reports",
    "cli",
)

# Public module-level functions that run too often for a span each.
COUNT_ONLY_FUNCTIONS = {
    "scalars.sign_scalar",
    "signs.sym_sign",
    "signs.skew_sign",
    "signs.enumerate_unshuffles",
    "signs.unshuffles_with_tail",
    "signs.canonical_partitions",
    "signs.partition_permutation",
    "modules.pair_dual",
    "linfty.canonicalize_key",
    "linfty.sorted_tuples",
    "linfty.multilinear_extend",
    "reports.coefficient_entries",
    "reports.residuals_from_sym",
    "reports.residuals_from_module",
    "reports.residuals_from_algebra",
}

# Public module-level functions left alone: they only make plain values.
SKIPPED_FUNCTIONS = {"cli.build_parser", "cli.worker_count"}

# Methods that get a span: the kernels and the stages named by the metrics.
SPAN_METHODS = (
    "symtensor.DerivationD.apply",
    "symtensor.FilteredAutomorphism.apply",
    "symtensor.FilteredAutomorphism.apply_inverse",
    "linfty.ShiftedDerDGLA.jacobi_residual",
    "algebroid.AlgebroidStructure.validate",
    "reports.Report.canonical_json",
    "reports.Report.human_lines",
)

COUNT_METHODS = (
    "scalars.Scalar.__mul__",
    "scalars.Scalar.__add__",
    "algebra.AlgebraElement.__mul__",
    "algebra.AlgebraElement.scale",
    "symtensor.SymElement.__mul__",
    "algebroid.AlgebroidStructure.bracket",
    "algebroid.AlgebroidStructure.anchor",
    "geometry.GeometricModel.nabla_bar",
)


class Tracer:
    """Span and counter store; one instance per traced process."""

    def __init__(self) -> None:
        # span: [id, parent id or None, request id, name, start, end]
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self.request: Optional[str] = None
        self._stack: List[int] = []
        self._originals: Dict[int, str] = {}

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn: Callable, observe=None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        counts.setdefault(name, 0)
        tracer = self

        def wrapper(*args, **kwargs):
            counts[name] += 1
            sid = len(spans)
            rec = [sid, stack[-1] if stack else None, tracer.request, name, perf_counter(), 0.0]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- observers for the size counters -------------------------------------

    def _observe_from_values(self, args, kwargs, result) -> None:
        alg = _arg(args, kwargs, 0, "alg")
        words = len(alg.words_of_weight(_arg(args, kwargs, 2, "weight")))
        self.counts["symtensor.from_values.words"] += words
        self.counts["symtensor.from_values.nonzero_words"] += len(result.data)

    def _observe_apply(self, args, kwargs, result) -> None:
        element = _arg(args, kwargs, 1, "element")
        self.counts["symtensor.DerivationD.apply.terms_in"] += len(element.data)
        if not result.is_zero():
            self.counts["symtensor.DerivationD.apply.nonzero"] += 1

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"algebroidkit.{layer}") for layer in LAYERS}
        for key in (
            "symtensor.from_values.words",
            "symtensor.from_values.nonzero_words",
            "symtensor.DerivationD.apply.terms_in",
            "symtensor.DerivationD.apply.nonzero",
        ):
            self.counts[key] = 0
        observers = {
            "symtensor.from_values": self._observe_from_values,
            "symtensor.DerivationD.apply": self._observe_apply,
        }

        replacements: Dict[int, Callable] = {}
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in SKIPPED_FUNCTIONS:
                    continue
                if name in COUNT_ONLY_FUNCTIONS:
                    wrapped = self._count(name, value)
                else:
                    wrapped = self._span(name, value, observers.get(name))
                replacements[id(value)] = wrapped
                self._originals[id(value)] = name

        for spec in SPAN_METHODS + COUNT_METHODS:
            layer, cls_name, meth = spec.split(".")
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[meth]
            if spec in SPAN_METHODS:
                wrapped = self._span(spec, original, observers.get(spec))
            else:
                wrapped = self._count(spec, original)
            setattr(cls, meth, wrapped)
            self._originals[id(original)] = spec

        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements and inspect.isfunction(value):
                    setattr(mod, attr, replacements[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and id(v) in replacements:
                            value[k] = replacements[id(v)]
        self._check_complete()

    def _check_complete(self) -> None:
        """Fail if any import site still holds an unwrapped original."""
        for mod in _package_modules():
            for attr, value in vars(mod).items():
                values = value.values() if isinstance(value, dict) else (value,)
                for v in values:
                    if inspect.isfunction(v) and id(v) in self._originals:
                        raise RuntimeError(
                            f"{mod.__name__}.{attr} still refers to the untraced "
                            f"{self._originals[id(v)]}"
                        )

    # -- results -------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for sid, parent, _req, _name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, float] = {}
        for sid, _parent, _req, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child[sid]
        return out

    def busy_time(self, *names: str) -> float:
        """Wall time inside spans named ``names``, nested ones counted once."""
        wanted = set(names)
        total = 0.0
        for _sid, parent, _req, name, start, end in self.spans:
            if name not in wanted:
                continue
            while parent is not None and self.spans[parent][3] not in wanted:
                parent = self.spans[parent][1]
            if parent is None:
                total += end - start
        return total

    def layer_self_times(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, t in self.self_times().items():
            out[name.split(".")[0]] += t
        return out


def _arg(args, kwargs, index: int, name: str):
    """Argument ``name`` at position ``index``, passed either way."""
    return args[index] if len(args) > index else kwargs[name]


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "algebroidkit" or n.startswith("algebroidkit.")]


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced pass.

    Kernel rows (``from_values``, ``evaluate``, ``apply``, ``nullspace``,
    ``parse``, ``render``) are self time; stage rows are busy time, the
    whole wall time of the stage including the kernels it calls.
    """
    st = tracer.self_times()
    busy = tracer.busy_time
    c = tracer.counts

    def self_s(*names: str) -> float:
        return sum(st.get(n, 0.0) for n in names)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    return {
        # ce_dictionary
        "symtensor.from_values_s": self_s("symtensor.from_values"),
        "symtensor.from_values_calls": c["symtensor.from_values"],
        "symtensor.from_values_words": c["symtensor.from_values.words"],
        "symtensor.from_values_useful_ratio": ratio(
            c["symtensor.from_values.nonzero_words"], c["symtensor.from_values.words"]
        ),
        "symtensor.evaluate_s": self_s("symtensor.evaluate"),
        "symtensor.evaluate_calls": c["symtensor.evaluate"],
        "modules.pair_dual_calls": c["modules.pair_dual"],
        "geometry.structure_from_geometry_s": busy("geometry.structure_from_geometry"),
        "algebroid.ce_differential_s": busy("algebroid.ce_differential"),
        "algebroid.extract_structure_s": busy("algebroid.extract_structure"),
        "algebroid.bracket_calls": c["algebroid.AlgebroidStructure.bracket"],
        "algebroid.anchor_calls": c["algebroid.AlgebroidStructure.anchor"],
        # operators
        "symtensor.apply_s": self_s("symtensor.DerivationD.apply"),
        "symtensor.apply_calls": c["symtensor.DerivationD.apply"],
        "symtensor.apply_terms_in": c["symtensor.DerivationD.apply.terms_in"],
        "symtensor.apply_useful_ratio": ratio(
            c["symtensor.DerivationD.apply.nonzero"], c["symtensor.DerivationD.apply"]
        ),
        "symtensor.sym_mul_calls": c["symtensor.SymElement.__mul__"],
        "symtensor.square_components_s": busy("symtensor.square_components"),
        "symtensor.conjugate_s": busy("symtensor.conjugate"),
        "symtensor.mc_residual_s": busy("symtensor.mc_residual"),
        "geometry.transport_lemma_s": busy("geometry.transport_lemma_residual"),
        "geometry.retraction_s": busy("geometry.retraction_residual"),
        "geometry.commutator_lemma_s": busy("geometry.commutator_lemma_residual"),
        "geometry.build_frakD_s": busy("geometry.build_frakD"),
        "geometry.nabla_bar_calls": c["geometry.GeometricModel.nabla_bar"],
        # corpus
        "modelio.parse_s": self_s("modelio.parse_model"),
        "modelio.parse_calls": c["modelio.parse_model"],
        "reports.render_s": self_s(*[n for n in st if n.startswith("reports.")]),
        "algebroid.residuals_s": busy(
            "algebroid.algebroid_jacobi_residual",
            "algebroid.leibniz_residual",
            "algebroid.anchor_morphism_residual",
        ),
        "linfty.jacobi_residual_s": busy(
            "linfty.jacobi_residual",
            "linfty.jacobi_residual_skew",
            "linfty.ShiftedDerDGLA.jacobi_residual",
        ),
        "linfty.morphism_residual_s": busy("linfty.morphism_residual"),
        "linalg.nullspace_s": self_s("linalg.nullspace"),
        "linalg.nullspace_calls": c["linalg.nullspace"],
        "signs.unshuffle_calls": c["signs.enumerate_unshuffles"] + c["signs.unshuffles_with_tail"],
        "signs.sign_calls": c["signs.sym_sign"] + c["signs.skew_sign"],
        # every workload
        "scalars.mul_calls": c["scalars.Scalar.__mul__"],
        "scalars.add_calls": c["scalars.Scalar.__add__"],
        "algebra.mul_calls": c["algebra.AlgebraElement.__mul__"],
        "algebra.scale_calls": c["algebra.AlgebraElement.scale"],
    }
