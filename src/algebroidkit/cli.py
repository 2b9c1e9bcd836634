"""Command-line verification workflows.

Every command loads a model file, runs exact checks and prints one line
per check; the process exits 0 when everything passes, 1 when any residual
is found, 2 on input errors and 3 on an internal error (any other exception,
reported as one line on stderr, never as a traceback).  Reports are
deterministic: exact coefficients, canonical ordering, and the
(non-deterministic) timings are excluded from the canonical JSON written by
--json.

``_run`` alone makes the report.  A command ``cmd_*(model, caps, args,
check)`` reports each line with one ``check(name, passed, residuals,
detail)`` call, and a line's time runs from the end of the line before it
(the first line's from the command's start): work done before a line's
check counts on that line.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import lru_cache
from typing import Iterable, List, Optional, Tuple

from .algebra import validate_base_algebra
from .algebroid import (
    AlgebroidStructure,
    algebroid_jacobi_residual,
    anchor_morphism_residual,
    ce_differential,
    d0_derivation,
    extract_structure,
    leibniz_residual,
)
from .errors import KitError
from .fixtures import Rng, random_unipotent
from .geometry import (
    GeometricModel,
    build_frakD,
    build_kapranov,
    commutator_lemma_residual,
    duality_residual,
    retraction_residual,
    structure_from_geometry,
    transport_lemma_residual,
    validate_geometric_model,
)
from .linfty import LInftyAlgebra, decalage, decalage_inverse, same_tables
from .modelio import parse_model
from .modules import validate_module
from .reports import (
    CheckResult,
    Report,
    ResidualEntry,
    residuals_from_algebra,
    residuals_from_module,
    residuals_from_sym,
)
from .symtensor import SymAlgebra, SymElement, conjugate, mc_residual, square_components

EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3
# the commands whose --arity selects one arity to check instead of overriding the arity cap
ARITY_SELECTORS = ("jacobi", "leibniz", "anchor")


def _structure_of(model) -> AlgebroidStructure:
    if isinstance(model, AlgebroidStructure):
        return model
    return structure_from_geometry(model)


def _require_geometric(model) -> GeometricModel:
    if not isinstance(model, GeometricModel):
        raise KitError("this command needs a geometric model file")
    return model


def _sym_entries(pairs: Iterable[Tuple[str, SymElement]]) -> List[ResidualEntry]:
    """The residual entries of (label, element) pairs, in the order given:
    every listing of symmetric-algebra residuals goes through here."""
    return [e for label, el in pairs for e in residuals_from_sym(label, el)]


def _derivation_entries(D) -> List[ResidualEntry]:
    return _sym_entries((f"D({label})", value) for _, label, _, value in D.labelled())


def _square_entries(sq) -> List[ResidualEntry]:
    """The entries of a ``square_components`` result, by shift and label."""
    return _sym_entries((f"shift {n} @ {label}", sq[n][label]) for n in sorted(sq) for label in sorted(sq[n]))


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _validation_problems(model):
    """(line name, problems) of every validate line, each found when read."""
    yield "base-algebra", validate_base_algebra(model.base)
    if isinstance(model, AlgebroidStructure):
        yield "carrier-module", validate_module(model.carrier)
        yield "structure-tables", model.validate()
    else:
        yield "tangent-and-normal-modules", validate_module(model.tangent) + validate_module(model.normal)
        yield "geometric-tensors", validate_geometric_model(model)


def cmd_validate(model, caps, args, check):
    for name, problems in _validation_problems(model):
        check(name, not problems, detail="; ".join(problems[:5]))


def _arities(args, top) -> List[int]:
    return list(range(1, top + 1)) if args.arity is None else [args.arity]


def _key_label(names, key) -> str:
    """A generator tuple as "(g0,g1)"."""
    return "(" + ",".join(names[i] for i in key) + ")"


def _per_arity(check, S: AlgebroidStructure, arities, title: str, family, entries):
    """One line per arity: every arity is read off one family(S, arities)
    call, made before the first line and so timed on it; entries(S, key,
    value) lists one residual."""
    residuals = family(S, arities) if arities else {}
    for n in arities:
        res = residuals[n]
        check(f"{title}[n={n}]", not res, [e for key in sorted(res) for e in entries(S, key, res[key])])


def _jacobi_entries(S, key, value) -> List[ResidualEntry]:
    return residuals_from_module(_key_label(S.carrier.gen_names, key), value)


def _leibniz_entries(S, key_and_slot, value) -> List[ResidualEntry]:
    key, b = key_and_slot
    return residuals_from_module(_key_label(S.carrier.gen_names, key) + "|" + S.base.names[b], value)


def _anchor_entries(S, key, der) -> List[ResidualEntry]:
    label = _key_label(S.carrier.gen_names, key)
    return [
        e
        for b, val in der.items()
        for e in residuals_from_algebra(f"{label} on {S.base.names[b]}", val)
    ]


def cmd_jacobi(model, caps, args, check):
    S = _structure_of(model)
    _per_arity(check, S, _arities(args, S.bracket_cap), "jacobi", algebroid_jacobi_residual, _jacobi_entries)


def cmd_leibniz(model, caps, args, check):
    S = _structure_of(model)
    _per_arity(
        check, S, _arities(args, S.bracket_cap), "leibniz",
        lambda S, arities: {n: leibniz_residual(S, n) for n in arities}, _leibniz_entries,
    )


def cmd_anchor(model, caps, args, check):
    S = _structure_of(model)
    arities = _arities(args, max(S.bracket_cap - 1, 1))
    _per_arity(check, S, arities, "anchor-morphism", anchor_morphism_residual, _anchor_entries)


def cmd_ce_build(model, caps, args, check):
    D = ce_differential(_structure_of(model), weight_cap=caps["weight"])
    check("ce-differential", True, _derivation_entries(D), detail="derivation table listed below")


def cmd_ce_extract(model, caps, args, check):
    if isinstance(model, GeometricModel):
        D, carrier = build_frakD(model), model.normal
    else:
        D, carrier = ce_differential(model, weight_cap=caps["weight"]), model.carrier
    S = extract_structure(D, carrier, bracket_cap=caps["arity"])
    entries: List[ResidualEntry] = []
    for n in sorted(S.brackets):
        for key in sorted(S.brackets[n]):
            label = f"bracket[{n}]" + _key_label(carrier.gen_names, key)
            entries.extend(residuals_from_module(label, S.brackets[n][key]))
    for n in sorted(S.anchors):
        for key, b in sorted(S.anchors[n]):
            label = f"anchor[{n}]" + _key_label(carrier.gen_names, key) + "|" + S.base.names[b]
            entries.extend(residuals_from_algebra(label, S.anchors[n][(key, b)]))
    check("extract-structure", True, entries, detail="extracted tables listed below")


def cmd_roundtrip(model, caps, args, check):
    if isinstance(model, AlgebroidStructure):
        D = ce_differential(model, weight_cap=caps["weight"])
        check("extract(ce(S)) == S", model == extract_structure(D, model.carrier, bracket_cap=model.bracket_cap))
        view = LInftyAlgebra(model.carrier, arity_cap=model.bracket_cap, symmetric=True)
        for n, table in model.brackets.items():
            for key, val in table.items():
                view.set_bracket(n, key, val)
        back = decalage(decalage_inverse(view))
        check("degree-shift dictionary round trip on the bracket tables", same_tables(back.tables, view.tables))
    else:
        S1 = structure_from_geometry(model)
        S2 = extract_structure(build_frakD(model), model.normal, bracket_cap=model.cap)
        check("recursion == extraction", S1 == S2)


def cmd_frakd_build(model, caps, args, check):
    g = _require_geometric(model)
    D = build_frakD(g)
    check("assemble", True, _derivation_entries(D), detail="derivation table listed below")
    check("weight-graded part equals d0", D.weight_component(0) == g.normal_d0())


def cmd_frakd_square(model, caps, args, check):
    sq = square_components(build_frakD(_require_geometric(model)))
    detail = "" if not sq else f"lowest violating weight shift: {min(sq)}"
    check("square-components", not sq, _square_entries(sq), detail=detail)


def cmd_kapranov(model, caps, args, check):
    D = build_kapranov(_require_geometric(model))
    check("diagonal-regime derivation", True, _derivation_entries(D), detail="derivation table listed below")
    sq = square_components(D)
    check("square (curvature-compatibility residuals)", not sq, _square_entries(sq))


def cmd_lemmas(model, caps, args, check):
    g = _require_geometric(model)
    for title, residual in (
        ("retraction: normal projection of the expansion is the identity", retraction_residual),
        ("projection commutator equals the Kodaira-Spencer substitution", commutator_lemma_residual),
        ("single-tangent transport identity and its iterate", transport_lemma_residual),
    ):
        res = residual(g)
        check(title, not res, _sym_entries(res))


def cmd_mc(model, caps, args, check):
    carrier = model.carrier if isinstance(model, AlgebroidStructure) else model.normal
    alg = SymAlgebra.over_module(carrier, cap=caps["weight"])
    D0 = d0_derivation(alg, carrier)
    Phi = random_unipotent(Rng(args.seed), alg)
    conjugated = conjugate(Phi, D0)  # both checks read this one Phi D0 Phi^{-1} and its one square
    res = mc_residual(D0, conjugated)
    check(f"maurer-cartan residual (seed={args.seed})", not res, _sym_entries(sorted(res.items())))
    sq = square_components(conjugated)
    check("conjugated differential squares to zero", not sq, _square_entries(sq))


def cmd_duality(model, caps, args, check):
    res = duality_residual(_require_geometric(model))
    check("ce(structure) == assembled differential", not res, _sym_entries(sorted(res.items())))


COMMANDS = {
    "validate": cmd_validate,
    "jacobi": cmd_jacobi,
    "leibniz": cmd_leibniz,
    "anchor": cmd_anchor,
    "ce-build": cmd_ce_build,
    "ce-extract": cmd_ce_extract,
    "roundtrip": cmd_roundtrip,
    "frakd-build": cmd_frakd_build,
    "frakd-square": cmd_frakd_square,
    "kapranov": cmd_kapranov,
    "lemmas": cmd_lemmas,
    "mc": cmd_mc,
    "duality": cmd_duality,
}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """One flat parser for every command; ``main`` refuses --seed outside mc.
    Made once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="algebroidkit",
        description="Exact verification of homotopy Lie algebroid structures and their dual differentials.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("model", help="path to a model file (JSON)")
    parser.add_argument("--weight", type=int, default=None, help="override the weight cap")
    parser.add_argument("--arity", type=int, default=None, help="override the arity cap / select one arity")
    parser.add_argument("--json", dest="json_out", default=None, help="write the canonical report here")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for the random filtered automorphism (mc only; default 0)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = 0
    elif args.command != "mc":
        parser.error("--seed applies to mc only")
    try:
        return _run(args)
    except Exception as exc:  # a fault of the kit, not of the input
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def _run(args) -> int:
    for flag, value, least in (("--weight", args.weight, 0), ("--arity", args.arity, 1)):
        if value is not None and value < least:
            print(f"error: {flag} must be at least {least}, got {value}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    try:
        with open(args.model, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.model}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    arity_override = args.arity if args.command not in ARITY_SELECTORS else None
    try:
        model = parse_model(text, weight_override=args.weight, arity_override=arity_override)
    except KitError as exc:  # ParseError, or a model the constructors refuse
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if arity_override is not None and isinstance(model, GeometricModel):
        # a geometric model's arity cap is its weight cap: the override would be ignored
        print("error: --arity applies to a geometric model only in jacobi, leibniz and anchor", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if isinstance(model, GeometricModel):
        caps = {"weight": model.cap, "arity": model.cap}
    else:
        caps = {"weight": args.weight if args.weight is not None else model.bracket_cap,
                "arity": model.bracket_cap}
    try:  # open the report file first, so an unwritable path costs no work
        out = open(args.json_out, "w", encoding="utf-8") if args.json_out else None
    except OSError as exc:
        print(f"error: cannot write {args.json_out}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    report, canonical = Report(args.command, caps), None
    last = time.perf_counter()

    def check(name: str, passed: bool, residuals: Iterable[ResidualEntry] = (), detail: str = ""):
        """Report one line, timed from the end of the line before it (the
        first from the command's start)."""
        nonlocal last
        now = time.perf_counter()
        report.add(CheckResult(name, passed, list(residuals), detail, (now - last) * 1000.0))
        last = now

    try:
        COMMANDS[args.command](model, caps, args, check)
        if not report.checks:
            raise KitError(f"{args.command} has no checks to run at these caps")
        lines = report.human_lines()
        canonical = report.canonical_json() if out is not None else None
    except KitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        if canonical is None and out is not None:  # a refused check leaves no report
            out.close()
            if os.path.isfile(args.json_out):  # never a device such as /dev/null
                os.remove(args.json_out)
    for line in lines:
        print(line)
    if out is not None:
        try:
            with out:
                out.write(canonical)
        except OSError as exc:
            print(f"error: cannot write {args.json_out}: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
