"""The report contract: every recorded CLI run and what it gave.

A run is one in-process ``cli.main`` call with ``--json``; its record is
``[exit code, sha256 of the --json bytes or null, stderr]``.  The runs are

* every command on the 8 shipped fixtures and both generated benchmark
  models of ``perfbench/workloads.py`` (seed 0), at the stored caps, at
  ``--weight 5`` and at ``--arity 2``;
* every command on each mutated fixture of ``test_cli.WITNESSES``;
* one input per refusal family of ``tests/test_cli.py``.

``tests/test_report_contract.py`` replays the table and names each run that
changed.  A change that is meant to alter a report re-records it with

    PYTHONPATH=src python tests/report_contract.py

and says in CHANGES.md which runs changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
TABLE = Path(__file__).resolve().parent / "report_contract.json"
SETTINGS = {"W=stored": [], "W=5": ["--weight", "5"], "arity=2": ["--arity", "2"]}

# run id -> (command line before the model path, file name of the model, the
# model text or None for a file that does not exist)
Run = Tuple[List[str], str, Optional[bytes]]


def _edited(doc: dict, mutate: Callable[[dict], object]) -> bytes:
    doc = json.loads(json.dumps(doc))
    mutate(doc)
    return json.dumps(doc).encode()


def _refusals(docs: Dict[str, dict], models: Dict[str, bytes]) -> Dict[str, Run]:
    """One input per refusal family of ``tests/test_cli.py``."""
    from modelio_oracle import put_value_on_unit
    from test_cli import REFUSED_MODELS, UNKNOWN_NAMES, _set

    def refused(table, site):
        fixture, mutate = table[site][:2]
        return _edited(docs[fixture[: -len(".json")]], mutate)

    def splitting(doc):
        doc["splitting"] = {"iota": [], "p": [], "tau": [], "rho": []}

    coeff = ("tensors", "curv_perp", 0, "value", 0, "terms", 0, "coeff", "num")
    rank2, perturbed = models["rank2.geometric"], models["perturbed.algebroid"]
    return {
        "refused-model": (["validate"], "m.json", refused(REFUSED_MODELS, "duplicate-basis-name")),
        "unknown-name": (["validate"], "m.json", refused(UNKNOWN_NAMES, "product-left")),
        "value-on-the-unit": (
            ["validate"], "m.json", _edited(docs["conjugated.algebroid"], lambda d: put_value_on_unit(d, "anchors"))
        ),
        "splitting-field": (["validate"], "m.json", _edited(docs["rank2.geometric"], splitting)),
        "normal-name-clash": (
            ["validate"], "m.json", _edited(docs["trivial.geometric"], _set(("normal", "generators", 0, "name"), "t0"))
        ),
        "non-integer-number": (
            ["validate"], "m.json", _edited(docs["rank1_curved.geometric"], _set(coeff, "NaN")).replace(b'"NaN"', b"NaN")
        ),
        "malformed-file": (["validate"], "m.json", b'{"schema": "algebroidkit/1"'),
        "non-utf8-file": (["validate"], "m.json", b"\xff\xfe{}"),
        "missing-file": (["validate"], "missing.json", None),
        "wrong-kind": (["frakd-square"], "m.json", perturbed),
        "weight-below-0": (["jacobi", "--weight", "-1"], "m.json", rank2),
        "arity-below-1": (["jacobi", "--arity", "0"], "m.json", rank2),
        "anchor-arity-over-the-cap": (["anchor", "--arity", "5"], "m.json", perturbed),
        "jacobi-arity-over-the-cap": (["jacobi", "--arity", "7"], "m.json", perturbed),
        "arity-on-a-geometric-model": (["ce-build", "--arity", "3"], "m.json", rank2),
        "seed-outside-mc": (["jacobi", "--seed", "3"], "m.json", rank2),
        "no-checks-at-these-caps": (["jacobi", "--weight", "0"], "m.json", models["trivial.geometric"]),
        "weight-below-the-stored-data": (["duality", "--weight", "2"], "m.json", models["generic.geometric"]),
    }


def runs(workloads) -> Dict[str, Run]:
    """Every run of the table, by run id."""
    from algebroidkit.cli import COMMANDS
    from test_cli import WITNESSES

    paths = {path.name[: -len(".json")]: path for path in sorted(FIXTURES.glob("*.json"))}
    docs = {name: json.loads(path.read_text()) for name, path in paths.items()}
    models = {name: path.read_bytes() for name, path in paths.items()}
    for name in sorted(workloads.GENERATED):
        models[name] = workloads.generate_model_text(name, 0).encode()
    out: Dict[str, Run] = {}
    for command in COMMANDS:
        for name, text in models.items():
            for setting, flags in SETTINGS.items():
                out[f"{command}:{name}:{setting}"] = ([command] + flags, "m.json", text)
    # each mutation once, named by the first line it witnesses
    mutations: Dict[Tuple[str, Callable], str] = {}
    for (_, title), witness in WITNESSES.items():
        if isinstance(witness, tuple) and witness[1] is not None:
            mutations.setdefault(witness, f"{witness[0][: -len('.json')]}+{title}")
    for (fixture, mutate), label in mutations.items():
        text = _edited(docs[fixture[: -len(".json")]], mutate)
        for command in COMMANDS:
            out[f"{command}:{label}"] = ([command], "m.json", text)
    for family, run in _refusals(docs, models).items():
        out[f"refusal:{family}"] = run
    return out


def replay(table_runs: Dict[str, Run]) -> Dict[str, list]:
    """{run id: [exit code, sha256 of the --json bytes or None, stderr]},
    stderr with the run's directory written as <dir>."""
    from algebroidkit.cli import main

    out: Dict[str, list] = {}
    with tempfile.TemporaryDirectory() as directory:
        for run_id, (head, file_name, text) in table_runs.items():
            model = Path(directory) / file_name
            report = Path(directory) / "report.json"
            if text is not None:
                model.write_bytes(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(head[:1] + [str(model)] + head[1:] + ["--json", str(report)])
                except SystemExit as exc:  # argparse refusals
                    code = exc.code
            digest = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
            out[run_id] = [code, digest, err.getvalue().replace(directory, "<dir>")]
            for path in (model, report):
                if path.exists():
                    path.unlink()
    return out


def load_table() -> Dict[str, list]:
    return json.loads(TABLE.read_text())


def write_table(table: Dict[str, list]) -> None:
    lines = [f"{json.dumps(run_id)}: {json.dumps(record)}" for run_id, record in sorted(table.items())]
    TABLE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def _load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    table = replay(runs(_load_workloads()))
    write_table(table)
    codes = [record[0] for record in table.values()]
    print(f"{len(table)} runs: " + ", ".join(f"{codes.count(c)} exit {c}" for c in sorted(set(codes))))
