"""Workload definitions: the ordered check lists and the seeded model files.

A check is one CLI invocation ``algebroidkit <command> <model> [--weight W]``.
Every workload is a fixed, ordered list of checks; a pass runs each check
once.  Model files are materialised into a work directory: the shipped
fixture corpus is regenerated with ``write_fixture_corpus`` (it does not
depend on the seed), and the generated models are drawn from the seed.

This module imports ``algebroidkit`` lazily, inside the functions that need
it, so that ``run.py`` can describe the workloads without importing the
package under test.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

DEFAULT_SEED = 0

COMMANDS = (
    "validate",
    "jacobi",
    "leibniz",
    "anchor",
    "ce-build",
    "ce-extract",
    "roundtrip",
    "frakd-build",
    "frakd-square",
    "kapranov",
    "lemmas",
    "mc",
    "duality",
)

# Commands whose identity holds on every well-formed geometric model, so they
# must exit 0 on a generated model whatever the seed.
UNCONDITIONAL = ("duality", "roundtrip", "lemmas", "ce-build", "ce-extract", "frakd-build", "validate")

FIXTURES = (
    "trivial.geometric",
    "rank1_curved.geometric",
    "rank2.geometric",
    "diagonal.geometric",
    "generic.geometric",
    "abelian.algebroid",
    "conjugated.algebroid",
    "perturbed.algebroid",
)

# Generated geometric models: name -> (tangent degrees, normal degrees, weight cap).
# The model is drawn once from a fixed structure seed; the benchmark seed then
# flips the sign of each tensor coefficient independently.  The work per check
# thus does not depend on the seed: redrawing the whole model moved single
# checks by up to 70 % between seeds, and redrawing the coefficient values
# (which sets the size of the exact fractions) still by 12 %.
GENERATED = {
    "gen_a2_b3_w5.geometric": ((0, 1), (0, -1, 0), 5),
    "gen_a3_b4_w5.geometric": ((0, 1, 0), (0, -1, 0, -1), 5),
}
GENERATED_DENSITY = 0.5
STRUCTURE_SEED = 0


@dataclass(frozen=True)
class Check:
    command: str
    model: str
    weight: Optional[int]  # None: the cap stored in the model file

    @property
    def id(self) -> str:
        w = "stored" if self.weight is None else str(self.weight)
        return f"{self.command}:{self.model}:W={w}"

    @property
    def seeded(self) -> bool:
        """True when the model file is drawn from the seed."""
        return self.model in GENERATED


def _ce_dictionary() -> List[Check]:
    checks = []
    for w in (5, 6):
        for cmd in ("duality", "ce-build", "ce-extract", "roundtrip"):
            checks.append(Check(cmd, "rank2.geometric", w))
    for w in (6, 7):
        for cmd in ("duality", "ce-build"):
            checks.append(Check(cmd, "rank1_curved.geometric", w))
    checks.append(Check("duality", "gen_a2_b3_w5.geometric", None))
    return checks


def _operators() -> List[Check]:
    return [
        Check("lemmas", "rank2.geometric", 5),
        Check("lemmas", "gen_a2_b3_w5.geometric", None),
        Check("frakd-square", "gen_a3_b4_w5.geometric", None),
        Check("mc", "gen_a3_b4_w5.geometric", None),
        Check("kapranov", "gen_a3_b4_w5.geometric", None),
    ]


def _corpus() -> List[Check]:
    return [Check(cmd, fx, None) for fx in FIXTURES for cmd in COMMANDS]


WORKLOADS = {
    # from_values / evaluate and structure_from_geometry dominate; the
    # derivation kernel barely runs.  Isolates the CE dictionary cost.
    "ce_dictionary": _ce_dictionary(),
    # DerivationD.apply, SymElement products and nabla_bar iterates dominate;
    # from_values only sees weight-one letters.  Isolates the operator kernels
    # and is the no-change control for dictionary work.
    "operators": _operators(),
    # Every command on every shipped fixture at the stored cap: many small,
    # distinct, cold inputs, where parse, report and per-call set-up show.
    "corpus": _corpus(),
}


def models_of(workload: str) -> List[str]:
    return sorted({c.model for c in WORKLOADS[workload]})


def generate_model_text(name: str, seed: int) -> str:
    """Model file text of the generated geometric model ``name`` at ``seed``."""
    from algebroidkit.fixtures import Rng, kodaira_base, random_geometric_model
    from algebroidkit.modelio import serialize_model

    tangent, normal, cap = GENERATED[name]
    model = random_geometric_model(
        Rng(STRUCTURE_SEED),
        kodaira_base(),
        list(tangent),
        list(normal),
        cap=cap,
        density=GENERATED_DENSITY,
        seed_modules=1000 + STRUCTURE_SEED,
    )
    doc = json.loads(serialize_model(model))
    rng = Rng(seed)

    def flip(node):
        if isinstance(node, dict):
            if set(node) == {"num", "den", "inum", "iden"}:
                if rng.random() < 0.5:
                    return {**node, "num": -node["num"], "inum": -node["inum"]}
                return node
            return {k: flip(v) for k, v in node.items()}
        if isinstance(node, list):
            return [flip(v) for v in node]
        return node

    doc["tensors"] = flip(doc.get("tensors", {}))
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def materialise(workload: str, seed: int, directory: str) -> Dict[str, str]:
    """Write the workload's model files; return model name -> path."""
    from algebroidkit.fixtures import write_fixture_corpus

    os.makedirs(directory, exist_ok=True)
    wanted = models_of(workload)
    paths: Dict[str, str] = {}
    if any(m in FIXTURES for m in wanted):
        for path in write_fixture_corpus(directory):
            name = os.path.basename(path)[: -len(".json")]
            if name in wanted:
                paths[name] = path
    for name in wanted:
        if name in GENERATED:
            path = os.path.join(directory, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(generate_model_text(name, seed))
            paths[name] = path
    return paths

