"""One cold pass of a workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand.  The process imports
``algebroidkit`` from the checkout's ``src/``, writes the workload's model
files, then runs every check of the workload once, in order, through
``algebroidkit.cli.main`` and records its exit code, the SHA-256 of its
canonical ``--json`` report and its start and end time.  With ``--mode
setup`` it stops after the set-up; with ``--mode trace`` it installs the
tracer first.  The result is one JSON file at ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from clock import SpeedProbe
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, materialise

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _sha256(path: str):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _shape(path: str):
    """(a, b, stored weight cap) read from a model file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["kind"] == "geometric":
        a, b = len(doc["tangent"]["generators"]), len(doc["normal"]["generators"])
    else:
        a, b = None, len(doc["carrier"]["generators"])
    return a, b, doc["caps"]["weight"]


def _run_check(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code, error = None, f"SystemExit: {exc.code}"
    except Exception as exc:  # a raise is a failed check, not a failed run
        code, error = None, f"{type(exc).__name__}: {exc}"
    end = perf_counter()
    return code, error, start, end


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    parser.add_argument("--work", required=True, help="directory for model files and reports")
    parser.add_argument("--out", required=True, help="result file")
    args = parser.parse_args()

    # One CPU for the whole process: the speed probe must run on the core
    # whose speed it stands for, and the two cores of a shared machine speed
    # up and slow down independently.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = {}
    with SpeedProbe() as probe:
        t0 = perf_counter()
        import algebroidkit
        from algebroidkit import cli

        where = os.path.realpath(algebroidkit.__file__)
        if not where.startswith(os.path.realpath(SRC) + os.sep):
            print(f"error: imported algebroidkit from {where}, not from {SRC}", file=sys.stderr)
            return 3
        paths = materialise(args.workload, args.seed, os.path.join(args.work, "models"))
        result["setup"] = [t0, perf_counter()]

        if args.mode != "setup":
            reports = os.path.join(args.work, "reports")
            os.makedirs(reports, exist_ok=True)
            shapes = {name: _shape(path) for name, path in paths.items()}
            tracer = None
            if args.mode == "trace":
                tracer = Tracer()
                tracer.install()
            rows = []
            for i, check in enumerate(WORKLOADS[args.workload]):
                report = os.path.join(reports, f"{i:03d}.json")
                if os.path.exists(report):
                    os.remove(report)
                argv = [check.command, paths[check.model], "--json", report]
                if check.weight is not None:
                    argv += ["--weight", str(check.weight)]
                gc.collect()
                if tracer is not None:
                    tracer.request = check.id
                code, error, start, end = _run_check(cli, argv)
                a, b, stored = shapes[check.model]
                rows.append(
                    {
                        "id": check.id,
                        "command": check.command,
                        "model": check.model,
                        "a": a,
                        "b": b,
                        "W": check.weight if check.weight is not None else stored,
                        "exit": code,
                        "error": error,
                        "sha256": _sha256(report),
                        "start": start,
                        "end": end,
                    }
                )
            result["checks"] = rows
            if tracer is not None:
                result["layer_metrics"] = layer_metrics(tracer)
                result["self_times"] = tracer.self_times()
                result["layer_self_times"] = tracer.layer_self_times()
                result["counts"] = tracer.counts
                result["spans"] = tracer.spans
    result["probe"] = probe.samples
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
