"""The names the benchmark tracer reads exist in the package.

``perfbench/tracer.py`` patches ``SPAN_METHODS`` and ``COUNT_METHODS`` by
their dotted names at trace time, so renaming one of them would otherwise
only show when a traced benchmark run fails.  ``layer_metrics`` reads call
counts of public functions by name, which fails on a missing one, and the
busy time of stages by name, which silently reads 0 for a missing one.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"

# The stages whose busy time ``layer_metrics`` reports.
STAGES = (
    "geometry.build_frakD",
    "geometry.structure_from_geometry",
    "geometry.retraction_residual",
    "geometry.commutator_lemma_residual",
    "geometry.transport_lemma_residual",
    "symtensor.conjugate",
    "symtensor.mc_residual",
    "symtensor.square_components",
    "algebroid.ce_differential",
    "algebroid.extract_structure",
    "algebroid.algebroid_jacobi_residual",
    "algebroid.leibniz_residual",
    "algebroid.anchor_morphism_residual",
)


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


@pytest.mark.parametrize("spec", TRACER.SPAN_METHODS + TRACER.COUNT_METHODS)
def test_traced_method_exists(spec):
    layer, cls_name, meth = spec.split(".")
    assert layer in TRACER.LAYERS
    cls = getattr(importlib.import_module(f"algebroidkit.{layer}"), cls_name)
    assert inspect.isclass(cls)
    assert inspect.isfunction(cls.__dict__.get(meth)), spec


@pytest.mark.parametrize("name", STAGES)
def test_stage_is_public_module_function(name):
    """Only public functions defined in their layer get a span."""
    layer, attr = name.split(".")
    assert layer in TRACER.LAYERS
    mod = importlib.import_module(f"algebroidkit.{layer}")
    value = getattr(mod, attr, None)
    assert not attr.startswith("_")
    assert inspect.isfunction(value), name
    assert value.__module__ == mod.__name__, name


def test_layer_metrics_finds_every_counter():
    """An installed tracer has every counter layer_metrics reads.  Run in a
    fresh interpreter, since install patches the package in place."""
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('tracer', {str(TRACER_PATH)!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "tracer.layer_metrics(t)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
