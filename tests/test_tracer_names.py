"""The methods the benchmark tracer wraps by name exist in the package.

``perfbench/tracer.py`` patches ``SPAN_METHODS`` and ``COUNT_METHODS`` by
their dotted names at trace time, so renaming one of them would otherwise
only show when a traced benchmark run fails.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
