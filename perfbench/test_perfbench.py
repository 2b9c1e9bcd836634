"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest perfbench/test_perfbench.py -q

They start real benchmark runs (about two minutes in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


_RUNS = {}


def bench_result(workload: str, trace: int):
    """(last-line result, details file) of a one-pass run at the default seed."""
    key = (workload, trace)
    if key not in _RUNS:
        proc = _bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        details_path = os.path.join(run.OUT, f"{workload}-seed0-trace{trace}.json")
        with open(details_path, encoding="utf-8") as fh:
            _RUNS[key] = (result, json.load(fh))
    return _RUNS[key]


def test_generated_models_follow_the_seed(tmp_path):
    for name in workloads.GENERATED:
        assert workloads.generate_model_text(name, 5) == workloads.generate_model_text(name, 5)
        assert workloads.generate_model_text(name, 5) != workloads.generate_model_text(name, 6)
    a = workloads.materialise("operators", 5, str(tmp_path / "a"))
    b = workloads.materialise("operators", 5, str(tmp_path / "b"))
    for name in a:
        with open(a[name], "rb") as fa, open(b[name], "rb") as fb:
            assert fa.read() == fb.read()


def test_every_check_has_a_recorded_outcome():
    with open(run.EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert set(expected) == set(workloads.WORKLOADS)
    for name, checks in workloads.WORKLOADS.items():
        assert len({c.id for c in checks}) == len(checks)
        assert set(expected[name]) == {c.id for c in checks}
    assert len(workloads.WORKLOADS["corpus"]) == 104
    assert sum(e["exit"] == 2 for e in expected["corpus"].values()) == 15


def test_tail_rule():
    assert run.tail([float(i) for i in range(104)]) == (93.0, "p90 of 104 checks")
    assert run.tail([float(i) for i in range(13)]) == (12.0, "max of 13 checks")


def test_tracer_covers_every_import_site():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import tracer; t = tracer.Tracer(); t.install();"
        "import algebroidkit.algebroid as a, algebroidkit.geometry as g, algebroidkit.cli as c;"
        "assert hasattr(a.from_values, '__wrapped__');"
        "assert hasattr(g.evaluate, '__wrapped__');"
        "assert hasattr(c.parse_model, '__wrapped__');"
        "assert all(hasattr(f, '__wrapped__') for f in c.COMMANDS.values())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, BENCH], env=run.worker_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_pass_matches_untraced_pass(workload):
    result, details = bench_result(workload, 1)
    assert result["correct"] and result["failed"] == 0
    digests = {}
    for row in details["checks"]:
        digests.setdefault(row["id"], set()).add((row["exit"], row["sha256"]))
    assert {row["mode"] for row in details["checks"]} == {"pass", "trace"}
    assert all(len(d) == 1 for d in digests.values())
    assert details["per_layer"]


def test_metric_names_match_benchmark_json():
    result, _ = bench_result("corpus", 0)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    result, _ = bench_result("corpus", 1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "corpus", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
