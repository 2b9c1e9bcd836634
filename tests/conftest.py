"""Test-suite settings: Hypothesis runs a fixed, bounded set of examples.

``derandomize`` draws the same examples on every run, so the suite stays
deterministic; ``deadline=None`` because exact ``Fraction`` arithmetic makes
single examples slow but not wrong; ``database=None`` because derandomized
runs have no failing examples of earlier runs to replay.

The ``workloads`` fixture loads ``perfbench/workloads.py``, which draws the
generated benchmark models, so tests can read those models too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile(
    "algebroidkit", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("algebroidkit")


@pytest.fixture(scope="session")
def workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module
