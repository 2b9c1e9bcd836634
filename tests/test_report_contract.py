"""The report contract (``tests/report_contract.py``): every recorded run
gives the exit code, the ``--json`` bytes and the stderr it was recorded with."""

from __future__ import annotations

import time

from report_contract import load_table, replay, runs


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
