"""The report contract (``tests/report_contract.py``): every recorded run
gives the exit code, the ``--json`` bytes and the stderr it was recorded with,
whatever the interpreter's hash seed."""

from __future__ import annotations

import contextlib
import io
import json
import os
import pickle
import random
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


# The lists of a model file whose order carries meaning: the order of the
# basis and of the generators gives the indices, and that of a word or of a
# bracket's or anchor's args the Koszul sign of sorting it.
ORDERED_LISTS = {"basis", "generators", "word", "args"}


def _shuffled(node, rng, key=None):
    """node with the key order of every object and the order of every list
    not in ``ORDERED_LISTS`` (by the field that holds it) shuffled."""
    if type(node) is dict:
        items = [(k, _shuffled(v, rng, k)) for k, v in node.items()]
        rng.shuffle(items)
        return dict(items)
    if type(node) is list:
        items = [_shuffled(v, rng) for v in node]
        if key not in ORDERED_LISTS:
            rng.shuffle(items)
        return items
    return node


def test_entry_order_changes_no_run():
    """Every command on each of the 8 shipped fixtures at the stored caps,
    with the file's object keys and unordered lists shuffled under a fixed
    seed, gives the exit code, report digest and stderr of the file as it
    is shipped."""
    from algebroidkit.cli import COMMANDS

    rng = random.Random(20)
    plain, shuffled = {}, {}
    for path in sorted((TESTS.parent / "fixtures").glob("*.json")):
        text = path.read_bytes()
        moved = json.dumps(_shuffled(json.loads(text), rng)).encode()
        assert moved != text
        for command in COMMANDS:
            plain[f"{command}:{path.name}"] = ([command], "m.json", text)
            shuffled[f"{command}:{path.name}"] = ([command], "m.json", moved)
    assert len(plain) == 8 * len(COMMANDS)
    assert replay(shuffled) == replay(plain)


# The commands whose lines list residuals by weight.  The listings
# (ce-build, ce-extract, frakd-build), validate and roundtrip stay out: the
# ce-extract listing is keyed by arity, with weight 0.
TRUNCATED = ("frakd-square", "kapranov", "duality", "lemmas", "jacobi", "anchor", "leibniz", "mc")


def _report_at(directory: Path, command: str, model: Path, weight: int):
    """The --json report of one in-process run at --weight, or None when the
    run is refused."""
    from algebroidkit.cli import main

    report = directory / "report.json"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(model), "--weight", str(weight), "--json", str(report)])
    return json.loads(report.read_text()) if code in (0, 1) else None


def test_a_report_at_w_is_the_report_at_w_plus_1_cut_at_w(tmp_path):
    """Cap truncation: for every line of a report at weight cap W, the
    report at W + 1 has a line of that name, and its residual entries of
    weight <= W are the line's entries at W, in order.  Every command of
    ``TRUNCATED`` on the 8 shipped fixtures at W = 2, 3, 4; a run refused at
    W (a cap below a stored table's arity) is compared from the next W."""
    compared = 0
    for model in sorted((TESTS.parent / "fixtures").glob("*.json")):
        for command in TRUNCATED:
            reports = {w: _report_at(tmp_path, command, model, w) for w in (2, 3, 4, 5)}
            for w in (2, 3, 4):
                if reports[w] is None:
                    continue
                assert reports[w + 1] is not None, (command, model.name, w)
                lines = {c["name"]: c["residuals"] for c in reports[w + 1]["checks"]}
                for c in reports[w]["checks"]:
                    assert c["name"] in lines, (command, model.name, w, c["name"])
                    cut = [e for e in lines[c["name"]] if e["weight"] <= w]
                    assert cut == c["residuals"], (command, model.name, w, c["name"])
                compared += 1
    assert compared == 108
