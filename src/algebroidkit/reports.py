"""Deterministic check reports with exact residual listings.

A Report aggregates named checks; each failed check carries its residual
witnesses as (weight, basis word, exact coefficient) triples.  The canonical
JSON form is byte-stable across runs and platforms: keys are sorted, entries
are emitted in a fixed order and timing is kept out of it.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .algebra import AlgebraElement
from .symtensor import SymElement

# Plain classes, not dataclasses: importing ``dataclasses`` loads ``inspect``
# and the modules it reads, a large share of a command's start-up.  _Record
# keeps what a dataclass gave them: equality and repr over the fields, in
# the order ``__init__`` sets them, and no hash (a class that defines
# ``__eq__`` alone is unhashable, and so are its subclasses).


class _Record:
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(vars(self).values()) == tuple(vars(other).values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class ResidualEntry(_Record):
    def __init__(self, location: str, weight: int, word: str, coefficient: str):
        self.location = location
        self.weight = weight
        self.word = word
        self.coefficient = coefficient

    def as_dict(self) -> dict:
        return {
            "location": self.location,
            "weight": self.weight,
            "word": self.word,
            "coefficient": self.coefficient,
        }


class CheckResult(_Record):
    def __init__(
        self,
        name: str,
        passed: bool,
        residuals: Optional[List[ResidualEntry]] = None,
        detail: str = "",
        elapsed_ms: float = 0.0,
    ):
        self.name = name
        self.passed = passed
        self.residuals = [] if residuals is None else residuals
        self.detail = detail
        self.elapsed_ms = elapsed_ms

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "residuals": [r.as_dict() for r in self.residuals],
        }
        if self.detail:
            out["detail"] = self.detail
        return out


class Report(_Record):
    def __init__(self, command: str, caps: Dict[str, int]):
        self.command = command
        self.caps = caps
        self.checks: List[CheckResult] = []

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
