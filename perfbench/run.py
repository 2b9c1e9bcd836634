"""algebroidkit benchmark: cold CLI checks, end-to-end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {ce_dictionary,operators,corpus} \\
        --seed N --seconds S --trace {0,1}

A run starts a few set-up-only processes (import + model files) and then
cold passes, each in a fresh process (``worker.py``), until ``--seconds``
have gone by; every pass runs every check of the workload once.  With
``--trace 1`` each untraced pass is followed by a traced one.  Every check's
exit code and canonical ``--json`` report digest are compared with
``expected.json``.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).  Times
are speed-normalized wall times (see ``clock.py``).  Details (environment,
per-check rows, spans) go to ``.perfbench/`` in the checkout.

``--record`` runs one pass at the default seed and rewrites the workload's
entries in ``expected.json``; use it only when a change is meant to alter
the reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

sys.dont_write_bytecode = True  # write nothing into the checkout but .perfbench/

from clock import Normalizer  # noqa: E402
from workloads import DEFAULT_SEED, UNCONDITIONAL, WORKLOADS  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(BENCH, "expected.json")

SETUP_PROCESSES = 5
# No pass starts that would, at the pace so far, end after this many seconds
# of the run, so a run ends well inside three minutes.
RUN_LIMIT_S = 140.0
WORKER_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "checks_per_s": "1/s",
    "check_p50_s": "s",
    "check_tail_s": "s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class RunError(Exception):
    pass


# -- environment ---------------------------------------------------------------


def worker_env() -> Dict[str, str]:
    """Pinned environment: no worker-thread fan-out, fixed hash seed, the
    checkout's src/ first on the path, no bytecode written into it."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("ALGEBROIDKIT_WORKERS", "PYTHONPATH", "PYTHONHASHSEED", "PYTHONHOME")
    }
    env.update(PYTHONHASHSEED="0", PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    return env


def environment(seed: int) -> Dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
        "PYTHONHASHSEED": "0",
    }


# -- processes -----------------------------------------------------------------


def spawn(workload: str, seed: int, mode: str, work: str, index: int) -> dict:
    out = os.path.join(work, f"{mode}-{index}.json")
    cmd = [
        sys.executable,
        "-B",
        os.path.join(BENCH, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--work", os.path.join(work, f"{mode}-{index}"),
        "--out", out,
    ]
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} process timed out after {WORKER_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"{mode} process exited {proc.returncode}: {proc.stderr.strip()}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


# -- correctness ---------------------------------------------------------------


def check_row(row: dict, seeded: bool, seed: int, expected: dict, first: Dict[str, str]) -> str:
    """Empty string when the check's outcome is right, else the reason."""
    if row["error"]:
        return f"raised {row['error']}"
    if not seeded or seed == DEFAULT_SEED:
        want = expected.get(row["id"])
        if want is None:
            return "no recorded outcome"
        if row["exit"] != want["exit"]:
            return f"exit {row['exit']}, recorded {want['exit']}"
        if row["sha256"] != want["sha256"]:
            return "report digest differs from the recorded one"
    else:
        allowed = (0,) if row["command"] in UNCONDITIONAL else (0, 1)
        if row["exit"] not in allowed:
            return f"exit {row['exit']}, expected one of {allowed}"
        if row["sha256"] is None:
            return "no report written"
    if row["id"] in first and first[row["id"]] != row["sha256"]:
        return "report digest differs between passes of this run"
    first.setdefault(row["id"], row["sha256"])
    return ""


# -- statistics ----------------------------------------------------------------


def tail(times: List[float]) -> Tuple[float, str]:
    """Value at the highest of p99.9/p99/p90 with at least ten samples above
    it; the slowest sample when there are too few."""
    xs = sorted(times)
    n = len(xs)
    for p in (99.9, 99.0, 90.0):
        idx = max(math.ceil(p / 100.0 * n) - 1, 0)
        if n - 1 - idx >= 10:
            return xs[idx], f"p{p:g} of {n} checks"
    return xs[-1], f"max of {n} checks"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite expected.json for this workload")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "algebroidkit", "__init__.py")):
        print(f"error: no algebroidkit package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return run(args, work)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: str) -> int:
    workload, seed = args.workload, args.seed
    env = environment(seed)
    print("# env " + json.dumps(env, sort_keys=True))

    if args.record:
        if seed != DEFAULT_SEED:
            raise RunError(f"record at the default seed {DEFAULT_SEED}")
        rows = spawn(workload, seed, "pass", work, 0)["checks"]
        bad = [r["id"] for r in rows if r["error"]]
        if bad:
            raise RunError(f"checks raised: {bad}")
        expected = _load_expected()
        expected[workload] = {r["id"]: {"exit": r["exit"], "sha256": r["sha256"]} for r in rows}
        with open(EXPECTED, "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"# recorded {len(rows)} checks of {workload}")
        return 0

    expected = _load_expected().get(workload)
    if expected is None:
        raise RunError(f"expected.json has no entries for {workload}")

    setups = [spawn(workload, seed, "setup", work, i) for i in range(SETUP_PROCESSES)]
    passes: List[dict] = []
    traced: List[dict] = []
    t0 = time.monotonic()
    while True:
        round_start = time.monotonic()
        passes.append(spawn(workload, seed, "pass", work, len(passes)))
        if args.trace:
            traced.append(spawn(workload, seed, "trace", work, len(traced)))
        now = time.monotonic()
        if now - t0 >= args.seconds or (now - t0) + (now - round_start) > RUN_LIMIT_S:
            break

    setup_s = [Normalizer(r["probe"]).normalized(*r["setup"]) for r in setups + passes + traced]

    seeded = {c.id: c.seeded for c in WORKLOADS[workload]}
    first: Dict[str, str] = {}
    rows_out = []
    attempted = failed = 0
    for mode, results in (("pass", passes), ("trace", traced)):
        for index, r in enumerate(results):
            norm = Normalizer(r["probe"])
            for row in r["checks"]:
                attempted += 1
                reason = check_row(row, seeded[row["id"]], seed, expected, first)
                failed += bool(reason)
                wall = row["end"] - row["start"]
                rows_out.append(
                    {
                        **{k: row[k] for k in ("id", "command", "model", "a", "b", "W", "exit", "sha256")},
                        "mode": mode,
                        "pass": index,
                        "wall_s": wall,
                        "norm_s": norm.normalized(row["start"], row["end"]),
                        "failure": reason,
                    }
                )
                if reason:
                    print(f"# FAIL {mode} {index} {row['id']}: {reason}")

    times = [row["norm_s"] for row in rows_out if row["mode"] == "pass"]
    walls = [row["wall_s"] for row in rows_out if row["mode"] == "pass"]
    tail_value, tail_label = tail(times)
    end_to_end = {
        "checks_per_s": len(times) / sum(times),
        "check_p50_s": statistics.median(times),
        "check_tail_s": tail_value,
        "ok_frac": 1.0 - failed / attempted,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    print(
        f"# {workload}: {len(passes)} pass(es), {len(times)} checks, "
        f"{sum(walls):.3f} s wall, {sum(times):.3f} s normalized; "
        f"tail = {tail_label}; failed_frac = {failed / attempted:.6f}"
    )

    report = {
        "env": env,
        "workload": workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "end_to_end": end_to_end,
        "tail": tail_label,
        "setup_s_samples": setup_s,
        "checks": rows_out,
    }
    if args.trace:
        # Per-layer times are scaled by their pass's mean core speed, so they
        # read in the same normalized seconds as the end-to-end times.
        layer_runs = []
        for index, r in enumerate(traced):
            rows = [row for row in rows_out if row["mode"] == "trace" and row["pass"] == index]
            speed = sum(row["norm_s"] for row in rows) / sum(row["wall_s"] for row in rows)
            layer_runs.append(
                {k: v * speed if per_layer_unit(k) == "s" else v for k, v in r["layer_metrics"].items()}
            )
        layer = {name: statistics.median(m[name] for m in layer_runs) for name in layer_runs[0]}
        overhead = []
        for index in range(len(traced)):
            per_mode = {
                mode: sum(row["norm_s"] for row in rows_out if row["mode"] == mode and row["pass"] == index)
                for mode in ("pass", "trace")
            }
            overhead.append(per_mode["trace"] - per_mode["pass"])
        report.update(
            per_layer=layer,
            trace_overhead_s=overhead,
            layer_self_times=traced[0]["layer_self_times"],
            self_times=traced[0]["self_times"],
            counts=traced[0]["counts"],
        )
        spans_path = os.path.join(OUT, f"{workload}-seed{seed}.spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "parent", "request", "name", "start", "end"], "spans": traced[0]["spans"]},
                fh,
            )
        print(f"# tracing overhead (traced - untraced pass, normalized): {', '.join(f'{o:+.3f} s' for o in overhead)}")
        print(f"# spans: {spans_path}")
        metrics = {name: {"value": v, "unit": per_layer_unit(name)} for name, v in layer.items()}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in end_to_end.items()}

    details = os.path.join(OUT, f"{workload}-seed{seed}-trace{args.trace}.json")
    with open(details, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"# details: {details}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _load_expected() -> dict:
    if not os.path.exists(EXPECTED):
        return {}
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
