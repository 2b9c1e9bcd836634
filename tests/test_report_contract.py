"""The report contract (``tests/report_contract.py``): every recorded run
gives the exit code, the ``--json`` bytes and the stderr it was recorded with,
whatever the interpreter's hash seed."""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

from report_contract import load_table, replay, runs

TESTS = Path(__file__).resolve().parent


def test_every_recorded_run_replays_unchanged(workloads):
    table = load_table()
    started = time.perf_counter()
    got = replay(runs(workloads))
    elapsed = time.perf_counter() - started
    assert sorted(got) == sorted(table), "the runs differ from the recorded ones: re-record the table"
    changed = [
        f"{run_id}: exit {was[0]} -> {now[0]}, report {was[1]} -> {now[1]}, stderr {was[2]!r} -> {now[2]!r}"
        for run_id, now in sorted(got.items())
        for was in [table[run_id]]
        if now != was
    ]
    assert not changed, f"{len(changed)} runs changed:\n" + "\n".join(changed)
    assert elapsed < 5, f"the replay took {elapsed:.1f} s"


# Replays the pickled {run id: run} on stdin and prints the records as JSON.
REPLAY = (
    "import json, pickle, sys\n"
    "from report_contract import replay\n"
    "print(json.dumps(replay(pickle.load(sys.stdin.buffer))))\n"
)


@pytest.mark.parametrize("seed", ["1", "12345"])
def test_reports_do_not_depend_on_the_hash_seed(workloads, seed):
    """Every command on ``rank2.geometric`` and ``perturbed.algebroid`` at the
    stored caps, replayed in a fresh interpreter under another
    ``PYTHONHASHSEED``, gives its recorded record: no report, exit code or
    message depends on the order of a set or of a str-keyed dict."""
    table = load_table()
    subset = {
        run_id: run
        for run_id, run in runs(workloads).items()
        if run_id.endswith((":rank2.geometric:W=stored", ":perturbed.algebroid:W=stored"))
    }
    assert len(subset) == 26
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-B", "-c", REPLAY], input=pickle.dumps(subset), env=env, capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()
    got = json.loads(done.stdout)
    assert {run_id: got[run_id] for run_id in subset} == {run_id: table[run_id] for run_id in subset}
