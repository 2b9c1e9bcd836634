"""Deterministic check reports with exact residual listings.

A Report aggregates named checks; each failed check carries its residual
witnesses as (weight, basis word, exact coefficient) triples.  The canonical
JSON form is byte-stable across runs and platforms: keys are sorted, entries
are emitted in a fixed order and timing is kept out of it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List

from .algebra import AlgebraElement
from .symtensor import SymElement


@dataclass
class ResidualEntry:
    location: str
    weight: int
    word: str
    coefficient: str

    def as_dict(self) -> dict:
        return {
            "location": self.location,
            "weight": self.weight,
            "word": self.word,
            "coefficient": self.coefficient,
        }


@dataclass
class CheckResult:
    name: str
    passed: bool
    residuals: List[ResidualEntry] = field(default_factory=list)
    detail: str = ""
    elapsed_ms: float = 0.0

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "residuals": [r.as_dict() for r in self.residuals],
        }
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class Report:
    command: str
    caps: Dict[str, int]
    checks: List[CheckResult] = field(default_factory=list)

    def add(self, check: CheckResult):
        self.checks.append(check)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def canonical_dict(self) -> dict:
        return {
            "command": self.command,
            "caps": dict(sorted(self.caps.items())),
            "checks": [c.as_dict() for c in self.checks],
            "status": "pass" if self.passed else "fail",
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def human_lines(self) -> List[str]:
        lines = []
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            timing = f" ({c.elapsed_ms:.1f} ms)" if c.elapsed_ms else ""
            lines.append(f"[{mark}] {c.name}{timing}")
            if c.detail:
                lines.append(f"       {c.detail}")
            for r in c.residuals[:20]:
                lines.append(
                    f"       residual @ {r.location}: weight={r.weight} word={r.word} coeff={r.coefficient}"
                )
            if len(c.residuals) > 20:
                lines.append(f"       ... {len(c.residuals) - 20} more residual entries")
        lines.append(f"result: {'all checks passed' if self.passed else 'residuals found'}")
        return lines


def residuals_from_sym(location: str, el: SymElement) -> List[ResidualEntry]:
    """Flatten a nonzero SymElement into deterministic residual entries, in
    its stored word order."""
    out = []
    names = el.algebra.letter_names
    for w, a in el.items():
        word = "*".join(names[i] for i in w) if w else "1"
        out.append(ResidualEntry(location, len(w), word, repr(a)))
    return out


def residuals_from_module(location: str, el) -> List[ResidualEntry]:
    out = []
    names = el.module.gen_names
    for i, a in el.items():
        out.append(ResidualEntry(location, 0, names[i], repr(a)))
    return out


def residuals_from_algebra(location: str, a: AlgebraElement) -> List[ResidualEntry]:
    return [ResidualEntry(location, 0, "1", repr(a))]


class timed_check:
    """Context helper: build a CheckResult with wall-clock timing attached."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def finish(self, passed: bool, residuals=None, detail: str = "") -> CheckResult:
        elapsed = (time.perf_counter() - self._t0) * 1000.0
        return CheckResult(self.name, passed, list(residuals or []), detail, elapsed)

    def __exit__(self, exc_type, exc, tb):
        return False
