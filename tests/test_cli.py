"""Command-line interface: subcommands, exit codes, deterministic reports."""

from __future__ import annotations

import copy
import json
import random
import re
import sys
import time
from pathlib import Path

import pytest

from algebroidkit import algebroid, cli, linfty, modules, signs
from algebroidkit.algebroid import AlgebroidStructure
from algebroidkit.cli import COMMANDS, main
from algebroidkit.fixtures import fixture_corpus
from algebroidkit.geometry import GeometricModel
from algebroidkit.linfty import AlgebraDerivation, ShiftedDerDGLA
from algebroidkit.modelio import serialize_model
from algebroidkit.symtensor import DerivationD
from modelio_oracle import put_value_on_unit


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("models")
    for name, obj in fixture_corpus().items():
        (d / f"{name}.json").write_text(serialize_model(obj))
    return d


def run(args):
    return main([str(a) for a in args])


def test_validate_all_fixtures(model_dir, capsys):
    for path in sorted(model_dir.iterdir()):
        assert run(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out


def test_validate_reports_a_closed_flag_on_an_unclosed_beta(model_dir, tmp_path, capsys):
    """rank2's beta is not closed: the file validates until it sets
    closed_beta, and then only the geometric-tensors check fails."""
    doc = json.loads((model_dir / "rank2.geometric.json").read_text())
    doc["closed_beta"] = True
    path = tmp_path / "closed.geometric.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", path, "--json", tmp_path / "report.json"]) == 1
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert [(c["name"], c["status"], c.get("detail")) for c in checks] == [
        ("base-algebra", "pass", None),
        ("tangent-and-normal-modules", "pass", None),
        ("geometric-tensors", "fail", "closed flag set but d(beta) != 0 at tangent letter 0"),
    ]
    capsys.readouterr()


@pytest.mark.parametrize("module, generator", [("tangent", "t0"), ("normal", "n0")])
def test_a_module_differential_of_the_wrong_degree_is_refused_by_lemmas(model_dir, tmp_path, capsys, module, generator):
    """d(g) = 1.g has degree 0: ``validate`` reports it (exit 1), and
    ``lemmas``, whose ambient d0 holds the d0 of both modules, refuses it
    (exit 2) with the derivation degree text."""
    value = [{"generator": generator, "terms": [{"basis": "1|1", "coeff": ONE}]}]  # 1|1 is rank2's unit
    differential = _set((module, "differential"), [{"generator": generator, "value": value}])
    path = _mutated(model_dir, tmp_path, "rank2.geometric.json", module, differential)
    assert run(["validate", path]) == 1
    capsys.readouterr()
    assert run(["lemmas", path]) == 2
    assert capsys.readouterr().err == f"error: derivation value on letter {generator}^ has degree 0, expected 1\n"


def test_frakd_square_exit_codes(model_dir, capsys):
    assert run(["frakd-square", model_dir / "trivial.geometric.json"]) == 0
    assert run(["frakd-square", model_dir / "rank1_curved.geometric.json"]) == 0
    capsys.readouterr()
    assert run(["frakd-square", model_dir / "generic.geometric.json"]) == 1
    out = capsys.readouterr().out
    assert "lowest violating weight shift" in out


def test_duality_exit_zero_on_all_geometric(model_dir):
    for path in sorted(model_dir.glob("*.geometric.json")):
        assert run(["duality", path]) == 0


def test_jacobi_perturbed_fails_with_localized_residual(model_dir, capsys):
    assert run(["jacobi", model_dir / "perturbed.algebroid.json"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] jacobi[n=3]" in out
    assert "coeff=" in out


def test_jacobi_single_arity_flag(model_dir, capsys):
    assert run(["jacobi", model_dir / "perturbed.algebroid.json", "--arity", "2"]) == 0
    out = capsys.readouterr().out
    assert "jacobi[n=2]" in out and "n=3" not in out


def test_jacobi_times_the_one_square_on_its_first_line(model_dir, capsys, monkeypatch):
    """The one D^2 that every arity reads is timed on the first jacobi line;
    each later line times only its own read."""
    residual = cli.algebroid_jacobi_residual

    def slow(S, arities):
        time.sleep(0.05)
        return residual(S, arities)

    monkeypatch.setattr(cli, "algebroid_jacobi_residual", slow)
    assert run(["jacobi", model_dir / "perturbed.algebroid.json"]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if " jacobi[n=" in line]
    times = [float(m.group(1)) if m else 0.0 for m in (re.search(r"\((\d+\.\d) ms\)$", line) for line in lines)]
    assert len(times) == 4 and times[0] >= 50 and max(times[1:]) < 50, lines


def test_roundtrip_and_lemmas_and_anchor(model_dir):
    assert run(["roundtrip", model_dir / "conjugated.algebroid.json"]) == 0
    assert run(["roundtrip", model_dir / "rank2.geometric.json"]) == 0
    assert run(["lemmas", model_dir / "rank2.geometric.json"]) == 0
    assert run(["anchor", model_dir / "conjugated.algebroid.json"]) == 0
    assert run(["leibniz", model_dir / "conjugated.algebroid.json"]) == 0


def test_ce_build_and_extract_and_kapranov(model_dir, capsys):
    assert run(["ce-build", model_dir / "conjugated.algebroid.json"]) == 0
    assert run(["ce-extract", model_dir / "rank2.geometric.json"]) == 0
    assert run(["frakd-build", model_dir / "rank2.geometric.json"]) == 0
    assert run(["kapranov", model_dir / "diagonal.geometric.json"]) == 0
    capsys.readouterr()


def test_mc_command(model_dir):
    assert run(["mc", model_dir / "conjugated.algebroid.json", "--seed", "3"]) == 0
    assert run(["mc", model_dir / "rank2.geometric.json"]) == 0


def test_mc_conjugates_once(model_dir, monkeypatch):
    """Both checks of mc read one Phi D0 Phi^{-1}."""
    calls = []
    conjugate = cli.conjugate

    def counting(Phi, D):
        calls.append(D)
        return conjugate(Phi, D)

    monkeypatch.setattr(cli, "conjugate", counting)
    assert run(["mc", model_dir / "conjugated.algebroid.json", "--seed", "3"]) == 0
    assert len(calls) == 1


def test_mc_squares_the_conjugate_once(model_dir, monkeypatch):
    """Both checks of mc read one square of C = Phi D0 Phi^{-1}: C is applied
    once per stored value, for C(Cx) with Cx read off C's table, and no
    more; a generator where C vanishes costs no apply."""
    conjugates = []
    applied = []
    conjugate = cli.conjugate
    apply = DerivationD.apply

    def keeping(Phi, D):
        conjugates.append(conjugate(Phi, D))
        return conjugates[-1]

    def counting(self, element):
        applied.append(self)
        return apply(self, element)

    monkeypatch.setattr(cli, "conjugate", keeping)
    monkeypatch.setattr(DerivationD, "apply", counting)
    for args in (["conjugated.algebroid.json", "--seed", "3"], ["rank2.geometric.json"]):
        conjugates.clear()
        applied.clear()
        assert run(["mc", model_dir / args[0], *args[1:]]) == 0
        (C,) = conjugates
        stored = len(C.on_algebra) + len(C.on_letters)
        assert 0 < stored < len(C.algebra.generators()), args[0]
        assert sum(d is C for d in applied) == stored, args[0]


@pytest.mark.parametrize("arity", [5, 12])
def test_anchor_arity_over_the_bracket_cap_exits_2_before_any_work(model_dir, capsys, monkeypatch, arity):
    """Refused with the arity asked for, before a key or a split of its
    positions is listed (``signs._nonvanishing_keys`` and
    ``signs._unshuffle_splits``): at arity 12 that is 4095 splits per key."""

    def refuse(*args):
        raise AssertionError("work started on a refused arity")

    for name in ("_nonvanishing_keys", "_unshuffle_splits"):
        monkeypatch.setattr(algebroid, name, refuse)
    assert run(["anchor", model_dir / "perturbed.algebroid.json", "--arity", arity]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: bracket arity {arity} exceeds cap 4\n"
    assert captured.out == ""


def test_jacobi_arity_over_the_bracket_cap_exits_2_before_any_work(model_dir, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started on a refused arity")

    monkeypatch.setattr(algebroid, "ce_differential", refuse)
    assert run(["jacobi", model_dir / "perturbed.algebroid.json", "--arity", 7]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: bracket arity 7 exceeds cap 4\n"
    assert captured.out == ""


def test_jacobi_evaluates_no_bracket_and_no_unshuffle_sum(model_dir, tmp_path, monkeypatch):
    """Every arity is read off the square of one CE differential."""
    paths = sorted(model_dir.iterdir())
    assert len(paths) == 8

    def reports(tag):
        out = {}
        for path in paths:
            report = tmp_path / f"{path.stem}.{tag}.json"
            out[path.name] = (run(["jacobi", path, "--json", report]), report.read_bytes())
        return out

    want = reports("free")

    def refuse(*args, **kwargs):
        raise AssertionError("jacobi evaluated a bracket")

    monkeypatch.setattr(linfty, "_unshuffle_sum", refuse)
    monkeypatch.setattr(AlgebroidStructure, "bracket", refuse)
    assert reports("patched") == want


def _calls_of_every_command(model_dir, monkeypatch, methods, functions):
    """{(command and fixture, name): calls} of the given methods
    {class: names} and module functions {module: names} over the 13
    commands on the 8 fixtures; a function is counted at every module that
    imports it."""
    paths = sorted(model_dir.iterdir())
    assert len(paths) == 8 and len(COMMANDS) == 13
    where = []
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[where[-1], name] = calls.get((where[-1], name), 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for cls, names in methods.items():
        for name in names:
            monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    for home, names in functions.items():
        for name in names:
            original = getattr(home, name)
            wrapped = counting(name, original)
            for module in list(sys.modules.values()):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, wrapped)
    for command in COMMANDS:
        for path in paths:
            where.append(f"{command} {path.name}")
            assert run([command, path]) in (0, 1, 2)
    return calls


def test_no_command_evaluates_a_bracket_an_anchor_or_a_multilinear_extension(model_dir, capsys, monkeypatch):
    """Every command reads the stored tables directly: none of the 13, on
    any of the 8 fixtures, calls ``AlgebroidStructure.bracket``,
    ``AlgebroidStructure.anchor`` or ``modules.multilinear_extend``."""
    methods = {AlgebroidStructure: ("bracket", "anchor")}
    assert _calls_of_every_command(model_dir, monkeypatch, methods, {modules: ("multilinear_extend",)}) == {}
    capsys.readouterr()


def test_no_command_takes_a_commutator_a_shifted_bracket_or_an_unshuffle_permutation(
    model_dir, capsys, monkeypatch
):
    """``anchor`` sums its residual row by row over position subsets: none
    of the 13 commands, on any of the 8 fixtures, calls
    ``AlgebraDerivation.commutator``, ``ShiftedDerDGLA.bracket`` or
    ``signs.unshuffles_with_tail``."""
    methods = {AlgebraDerivation: ("commutator",), ShiftedDerDGLA: ("bracket",)}
    assert _calls_of_every_command(model_dir, monkeypatch, methods, {signs: ("unshuffles_with_tail",)}) == {}
    capsys.readouterr()


# The substitution derivations of a geometric model, each built on its first
# read, and the commands that read them: build_frakD reads Shape and Rtan,
# the lemma checks Shape, nabla_perp, D1 and beta-tilde.
MODEL_DERIVATIONS = ("_nabla_hat", "_nabla_perp", "_shape", "_beta_tilde", "_rtan", "_d1")
_FRAKD_READS = ("_shape", "_rtan")
DERIVATIONS_READ = {
    **dict.fromkeys(["frakd-build", "frakd-square", "duality", "ce-extract", "roundtrip"], _FRAKD_READS),
    "lemmas": ("_shape", "_nabla_perp", "_d1", "_beta_tilde"),
}


def test_each_command_builds_only_the_model_derivations_it_reads(model_dir, tmp_path, capsys, monkeypatch):
    """A geometric model builds each substitution derivation on its first
    read, once: on rank2.geometric each of the 13 commands builds exactly
    the ones it reads (``DERIVATIONS_READ``), none builds nabla_hat, which
    only ``GeometricModel.nabla_bar`` reads, and ``validate`` builds
    beta-tilde only for a file that sets ``closed_beta``."""
    built = {}
    where = []
    for name in MODEL_DERIVATIONS:
        prop = GeometricModel.__dict__[name]

        def counting(g, build=prop.func, name=name):
            built[where[-1], name] = built.get((where[-1], name), 0) + 1
            return build(g)

        monkeypatch.setattr(prop, "func", counting)
    path = model_dir / "rank2.geometric.json"
    closed = tmp_path / "closed.geometric.json"
    closed.write_text(json.dumps({**json.loads(path.read_text()), "closed_beta": True}))
    for command in COMMANDS:
        where.append(command)
        assert run([command, path]) in (0, 1), command
    where.append("validate closed_beta")
    assert run(["validate", closed]) in (0, 1)
    want = {(command, name): 1 for command, names in DERIVATIONS_READ.items() for name in names}
    want["validate closed_beta", "_beta_tilde"] = 1
    assert built == want
    capsys.readouterr()


@pytest.mark.parametrize("command", ["jacobi", "ce-extract"])
@pytest.mark.parametrize("flag, value, least", [("--weight", -1, 0), ("--arity", 0, 1)])
def test_an_out_of_range_flag_is_refused_as_the_flag(model_dir, capsys, monkeypatch, command, flag, value, least):
    """Before the model file is parsed, so the refusal names the flag and
    not the stored caps it would override."""

    def refuse(*args, **kwargs):
        raise AssertionError("the model was parsed")

    monkeypatch.setattr(cli, "parse_model", refuse)
    assert run([command, model_dir / "rank2.geometric.json", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} must be at least {least}, got {value}\n"
    assert captured.out == ""


def test_anchor_arity_at_the_bracket_cap_runs(model_dir, capsys):
    assert run(["anchor", model_dir / "perturbed.algebroid.json", "--arity", 4]) in (0, 1)
    assert "anchor-morphism[n=4]" in capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(set(COMMANDS) - set(cli.ARITY_SELECTORS)))
def test_arity_on_a_geometric_model_exits_2_where_it_is_ignored(model_dir, tmp_path, capsys, command):
    """A geometric model's arity cap is its weight cap, so --arity would
    leave the report unchanged: refused, with no report written."""
    out = tmp_path / "out.json"
    assert run([command, model_dir / "rank2.geometric.json", "--arity", "3", "--json", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --arity applies to a geometric model only in jacobi, leibniz and anchor\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", cli.ARITY_SELECTORS)
def test_arity_selects_one_arity_on_a_geometric_model(model_dir, capsys, command):
    assert run([command, model_dir / "rank2.geometric.json", "--arity", "2"]) in (0, 1)
    out = capsys.readouterr().out
    assert "[n=2]" in out and "[n=1]" not in out and "[n=3]" not in out


def test_arity_overrides_the_cap_of_an_algebroid_model(model_dir, tmp_path):
    out = tmp_path / "r.json"
    assert run(["ce-build", model_dir / "conjugated.algebroid.json", "--arity", "3", "--json", out]) == 0
    assert json.loads(out.read_text())["caps"]["arity"] == 3


@pytest.mark.parametrize("command", sorted(set(COMMANDS) - {"mc"}))
def test_seed_outside_mc_exits_2(model_dir, capsys, command):
    with pytest.raises(SystemExit) as done:
        run([command, model_dir / "trivial.geometric.json", "--seed", "3"])
    assert done.value.code == 2
    assert "--seed applies to mc only" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["jacobi", "leibniz"])
def test_report_without_checks_exits_2(model_dir, tmp_path, capsys, command):
    """At weight cap 0 there is no bracket arity to check: an input error,
    with no report written."""
    out = tmp_path / "out.json"
    out.write_text("stale report of an earlier run")
    assert run([command, model_dir / "trivial.geometric.json", "--weight", "0", "--json", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {command} has no checks to run at these caps\n"
    assert captured.out == ""
    assert not out.exists()


def test_missing_file_exits_2(capsys):
    assert run(["validate", "no-such-file.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_file_exits_2(model_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "algebroidkit/1"')
    assert run(["validate", bad]) == 2
    assert "error" in capsys.readouterr().err


def test_wrong_kind_exits_2(model_dir, capsys):
    assert run(["frakd-square", model_dir / "conjugated.algebroid.json"]) == 2
    assert "geometric" in capsys.readouterr().err


def test_json_report_is_canonical_and_timing_free(model_dir, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run(["jacobi", model_dir / "perturbed.algebroid.json", "--json", out1]) == 1
    assert run(["jacobi", model_dir / "perturbed.algebroid.json", "--json", out2]) == 1
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    doc = json.loads(b1)
    assert "timing" not in json.dumps(doc)
    assert doc["status"] == "fail"
    assert doc["caps"] == {"arity": 4, "weight": 4}


@pytest.mark.parametrize("arity", [0, -1])
@pytest.mark.parametrize("command", ["jacobi", "leibniz", "anchor"])
def test_arity_below_one_exits_2(model_dir, capsys, command, arity):
    assert run([command, model_dir / "conjugated.algebroid.json", "--arity", arity]) == 2
    assert "--arity" in capsys.readouterr().err


def test_weight_override_recorded(model_dir, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["duality", model_dir / "generic.geometric.json", "--weight", "5", "--json", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["caps"]["weight"] == 5
    # lowering below the stored data is an input error
    assert run(["duality", model_dir / "generic.geometric.json", "--weight", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e400", "true"])
@pytest.mark.parametrize(
    "field",
    [
        ("tensors", "curv_perp", 0, "value", 0, "terms", 0, "coeff", "num"),
        ("base", "basis", 1, "degree"),
        ("normal", "generators", 0, "degree"),
    ],
    ids=["coeff", "base-degree", "generator-degree"],
)
def test_non_integer_json_number_exits_2(model_dir, tmp_path, capsys, literal, field):
    doc = json.loads((model_dir / "rank1_curved.geometric.json").read_text())
    slot = doc
    for key in field[:-1]:
        slot = slot[key]
    slot[field[-1]] = "PLACEHOLDER"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"PLACEHOLDER"', literal))
    assert run(["validate", bad]) == 2
    assert "expected an integer" in capsys.readouterr().err


def _mutated(model_dir, tmp_path, fixture, name, mutate):
    doc = json.loads((model_dir / fixture).read_text())
    mutate(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def _set(path, value):
    def mutate(doc):
        slot = doc
        for key in path[:-1]:
            slot = slot[key]
        slot[path[-1]] = value

    return mutate


def _append(path, value):
    def mutate(doc):
        slot = doc
        for key in path:
            slot = slot[key]
        slot.append(value)

    return mutate


# Input the BaseAlgebra / FreeModule constructors would refuse; the parser
# refuses it first: (fixture, mutation, JSON path of the refusal).
GEO = "rank1_curved.geometric.json"
REFUSED_MODELS = {
    "duplicate-basis-name": (GEO, _set(("base", "basis", 1, "name"), "1"), "$.base.basis"),
    "unit-of-degree-1": (GEO, _set(("base", "basis", 0, "degree"), 1), "$.base.unit"),
    "duplicate-carrier-generator": (
        "abelian.algebroid.json", _set(("carrier", "generators", 1, "name"), "g0"), "$.carrier.generators"
    ),
    "duplicate-tangent-generator": (
        GEO, _append(("tangent", "generators"), {"name": "t0", "degree": 1}), "$.tangent.generators"
    ),
    "duplicate-normal-generator": (
        GEO, _append(("normal", "generators"), {"name": "n0", "degree": 1}), "$.normal.generators"
    ),
}


def _add_anchor(args, on):
    def mutate(doc):
        doc["anchors"] = [{"arity": len(args) + 1, "args": args, "on": on, "terms": []}]

    return mutate


# Every name lookup of the parser: (fixture, mutation, JSON path of the name).
ALG = "conjugated.algebroid.json"
UNKNOWN_NAMES = {
    "product-left": (ALG, _set(("base", "products", 0, "left"), "zz"), "$.base.products[0].left"),
    "product-right": (ALG, _set(("base", "products", 0, "right"), "zz"), "$.base.products[0].right"),
    "base-differential": (
        ALG, _set(("base", "differential", 0, "basis"), "zz"), "$.base.differential[0].basis"
    ),
    "terms-basis": (
        ALG,
        _set(("brackets", 0, "value", 0, "terms", 0, "basis"), "zz"),
        "$.brackets[0].value[0].terms[0].basis",
    ),
    "value-generator": (
        ALG, _set(("brackets", 0, "value", 0, "generator"), "zz"), "$.brackets[0].value[0].generator"
    ),
    "carrier-differential": (
        "perturbed.algebroid.json",
        _set(("carrier", "differential", 0, "generator"), "zz"),
        "$.carrier.differential[0].generator",
    ),
    "bracket-args": (ALG, _set(("brackets", 0, "args", 0), "zz"), "$.brackets[0].args[0]"),
    "anchor-args": (ALG, _add_anchor(["g0", "zz"], "x"), "$.anchors[0].args[1]"),
    "anchor-on": (ALG, _add_anchor(["g0"], "zz"), "$.anchors[0].on"),
    "dhat-basis": (
        "generic.geometric.json", _set(("tensors", "dhat", 0, "basis"), "zz"), "$.tensors.dhat[0].basis"
    ),
}


@pytest.mark.parametrize("site", sorted(UNKNOWN_NAMES))
def test_unknown_name_exits_2_with_json_path(model_dir, tmp_path, capsys, site):
    fixture, mutate, path = UNKNOWN_NAMES[site]
    bad = _mutated(model_dir, tmp_path, fixture, site, mutate)
    assert run(["validate", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "'zz'" in err and f"(at {path})" in err, err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_constructor_errors_while_parsing_exit_2(model_dir, tmp_path, capsys, command):
    for name, (fixture, mutate, _) in REFUSED_MODELS.items():
        bad = _mutated(model_dir, tmp_path, fixture, name, mutate)
        assert run([command, bad]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (name, err)


@pytest.mark.parametrize("site", sorted(REFUSED_MODELS))
def test_constructor_refusals_name_json_path(model_dir, tmp_path, capsys, site):
    fixture, mutate, path = REFUSED_MODELS[site]
    bad = _mutated(model_dir, tmp_path, fixture, site, mutate)
    assert run(["validate", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert err.endswith(f"(at {path})\n"), err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_splitting_field_exits_2_without_report(model_dir, tmp_path, capsys, command):
    """A model is written in its split frame: a ``splitting`` field is refused
    like any other unknown field, before any report is written."""

    def mutate(doc):
        doc["splitting"] = {"iota": [], "p": [], "tau": [], "rho": []}

    bad = _mutated(model_dir, tmp_path, "rank2.geometric.json", "splitting", mutate)
    out = tmp_path / "out.json"
    assert run([command, bad, "--json", out]) == 2
    assert capsys.readouterr().err == "error: unknown field 'splitting' (at $)\n"
    assert not out.exists()


@pytest.mark.parametrize("fixture", ["trivial.geometric.json", "rank2.geometric.json"])
def test_normal_name_clash_exits_2_without_report(model_dir, tmp_path, capsys, fixture):
    """n0 renamed t0 would make one ambient letter name stand for two letters."""
    bad = _mutated(model_dir, tmp_path, fixture, "clash", _set(("normal", "generators", 0, "name"), "t0"))
    out = tmp_path / "out.json"
    assert run(["validate", bad, "--json", out]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: normal generator 't0' has the name of a tangent generator"
        " (at $.normal.generators[0].name)\n"
    ), err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_unwritable_json_path_exits_2(model_dir, tmp_path, capsys, command):
    out = tmp_path / "no-such-dir" / "out.json"
    assert run([command, model_dir / "trivial.geometric.json", "--json", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1, err
    assert not out.exists()


def test_unwritable_json_path_runs_no_work(model_dir, tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("the command ran before the report path was checked")

    monkeypatch.setitem(COMMANDS, "duality", fail)
    out = tmp_path / "no-such-dir" / "out.json"
    assert run(["duality", model_dir / "trivial.geometric.json", "--json", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write") and captured.err.count("\n") == 1


def test_refused_check_leaves_no_report(model_dir, tmp_path, capsys):
    out = tmp_path / "out.json"
    out.write_text("stale report of an earlier run")
    assert run(["frakd-build", model_dir / "abelian.algebroid.json", "--json", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def _abelian_with(model_dir, tmp_path, name, **entries):
    """The abelian fixture with extra top-level entries (brackets, anchors)."""
    doc = json.loads((model_dir / "abelian.algebroid.json").read_text())
    doc.update(entries)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def test_zero_anchor_entry_is_no_entry(model_dir, tmp_path, capsys):
    zero = {"arity": 2, "args": ["g0"], "on": "x", "terms": []}
    model = _abelian_with(model_dir, tmp_path, "zero-anchor", anchors=[zero])
    assert run(["roundtrip", model]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_zero_bracket_entry_does_not_raise_the_arity(model_dir, tmp_path, capsys):
    zero = {"arity": 3, "args": ["g0", "g0", "g1"], "value": []}
    model = _abelian_with(model_dir, tmp_path, "zero-bracket", brackets=[zero])
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    assert run(["ce-build", model, "--weight", "2", "--json", got]) == 0
    assert run(["ce-build", model_dir / "abelian.algebroid.json", "--weight", "2", "--json", want]) == 0
    assert got.read_bytes() == want.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("command", ["ce-build", "ce-extract", "roundtrip"])
def test_weight_cap_0_counts_stored_arities_only(model_dir, tmp_path, capsys, command):
    """The abelian fixture stores no bracket and no anchor, so its CE
    differential is d0, which weight cap 0 holds (as ``mc --weight 0``
    builds it); a stored bracket of arity 2 is still refused at cap 1."""
    assert run([command, model_dir / "abelian.algebroid.json", "--weight", "0"]) == 0
    assert capsys.readouterr().err == ""
    value = [{"generator": "g0", "terms": [{"basis": "e", "coeff": ONE}]}]
    model = _abelian_with(model_dir, tmp_path, "bracket", brackets=[{"arity": 2, "args": ["g0", "g0"], "value": value}])
    assert run([command, model, "--weight", "1"]) == 2
    assert capsys.readouterr().err == "error: weight cap 1 too small for bracket arity 2 / anchor arity 0\n"


def test_internal_error_exits_3_with_one_line(model_dir, tmp_path, capsys, monkeypatch):
    """Any exception that is not a KitError exits 3 with one stderr line and no report."""

    def boom(*args):
        raise RuntimeError("command failed\non two lines")

    monkeypatch.setitem(COMMANDS, "validate", boom)
    out = tmp_path / "validate.json"
    assert run(["validate", model_dir / "trivial.geometric.json", "--json", out]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: command failed on two lines\n"
    assert captured.out == ""
    assert not out.exists()

    # an exception from inside a check: the operator-lemma checks build derivation rows
    def divide_by_zero(self, w, i):
        raise ZeroDivisionError("derivation row")

    monkeypatch.setattr(DerivationD, "_row", divide_by_zero)
    out = tmp_path / "lemmas.json"
    assert run(["lemmas", model_dir / "generic.geometric.json", "--json", out]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: ZeroDivisionError: derivation row\n"
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "target, name, fixture, fault",
    [
        (GeometricModel, "__init__", "rank2.geometric.json", ZeroDivisionError("model constructor")),
        (AlgebroidStructure, "set_bracket", "perturbed.algebroid.json", AttributeError("bracket store")),
    ],
)
def test_a_kit_fault_inside_a_model_constructor_exits_3(
    model_dir, tmp_path, capsys, monkeypatch, target, name, fixture, fault
):
    """The parser makes a refusal of a model constructor (a KitError) an
    input error at a JSON path; any other exception raised there is a fault
    of the kit, which exits 3 with one internal-error line and no report."""

    def broken(*args, **kwargs):
        raise fault

    monkeypatch.setattr(target, name, broken)
    out = tmp_path / "validate.json"
    assert run(["validate", model_dir / fixture, "--json", out]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"internal error: {type(fault).__name__}: {fault}\n"
    assert captured.out == ""
    assert not out.exists()


def test_non_utf8_model_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run(["validate", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and err.count("\n") == 1, err


# -- seeded mutation fuzz ----------------------------------------------------------

FIXTURES = sorted((Path(__file__).resolve().parents[1] / "fixtures").glob("*.json"))

# The values on the unit a model file may not hold, by the field that holds
# them, with the start and the end of their refusal's message.
UNIT_VALUES = {
    "products": ("product ", " breaks the unit law"),
    "differential": ("differential of the unit ", " is not zero"),
    "anchors": ("anchor on the unit ", " is not zero"),
    "dhat": ("dhat on the unit ", " is not zero"),
}


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.name)
def test_values_on_the_unit_exit_2_on_every_command(fixture, tmp_path, capsys):
    """A product with the unit that breaks the unit law, a nonzero d_A(1), and
    by the model's kind a nonzero anchor or dhat on the unit: every command
    exits 2 with one error line that names the entry, no traceback and no
    --json report.  On rank2, dhat on the unit and the unit-law break used
    to be accepted, and then duality exited 1."""
    tried = 0
    for where, (start, end) in UNIT_VALUES.items():
        doc = json.loads(fixture.read_text())
        at = put_value_on_unit(doc, where)
        if at is None:
            continue
        tried += 1
        path = tmp_path / f"{where}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        for command in COMMANDS:
            assert main([command, str(path), "--json", str(out)]) == 2, (where, command)
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1, (where, command, captured)
            assert captured.err.startswith("error: " + start), captured.err
            assert captured.err.endswith(f"{end} (at {at})\n"), captured.err
            assert not out.exists()
    assert tried == 3
MUTATIONS_PER_FIXTURE = 8


def _nodes(doc, path=()):
    """(path, value) of every node of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _nodes(doc[key], path + (key,))
    elif isinstance(doc, list):
        for index, item in enumerate(doc):
            yield from _nodes(item, path + (index,))


def _mutate(doc, rng):
    """Apply one single-node mutation to doc in place; return what it did."""
    path, value = rng.choice([(p, v) for p, v in _nodes(doc) if p])
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    kinds = ["delete", "swap type"]
    if isinstance(value, int) and not isinstance(value, bool):
        kinds.append("change int")
    if isinstance(value, str):
        kinds.append("replace string")
    if isinstance(value, list) and value:
        kinds.append("duplicate entry")
    kind = rng.choice(kinds)
    if kind == "delete":
        del parent[last]
    elif kind == "change int":
        parent[last] = value + rng.choice((-2, -1, 1, 2))
    elif kind == "replace string":
        parent[last] = rng.choice(("", "zz", value + "'", value.upper(), "1"))
    elif kind == "duplicate entry":
        index = rng.randrange(len(value))
        value.insert(index, copy.deepcopy(value[index]))
    else:
        others = [v for v in (0, "0", 1.5, None, True, [], {}) if type(v) is not type(value)]
        parent[last] = rng.choice(others)
    return f"{kind} at {list(path)}"


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.name)
def test_mutated_fixtures_never_raise(fixture, tmp_path, capsys):
    """Seeded single-node mutations of a shipped fixture, every command at the
    caps stored in the file: main returns 0, 1 or 2 and raises nothing."""
    original = json.loads(fixture.read_text())
    bad = []
    for k in range(MUTATIONS_PER_FIXTURE):
        doc = copy.deepcopy(original)
        what = _mutate(doc, random.Random(f"{fixture.name}/{k}"))
        path = tmp_path / f"mutated{k}.json"
        path.write_text(json.dumps(doc))
        for command in COMMANDS:
            code = main([command, str(path)])
            err = capsys.readouterr().err
            if code not in (0, 1, 2):
                bad.append(f"{command} after {what}: exit {code}: {err.strip()}")
    assert not bad, "\n".join(bad)


# ---------------------------------------------------------------------------
# every check line against an input that makes it report (ROADMAP item 9)
# ---------------------------------------------------------------------------

ONE = {"num": 1, "den": 1, "inum": 0, "iden": 1}
LISTING = "a listing, which always passes"
CROSS_CHECK = "a cross-check that no accepted file can fail"


def _nonclosed(module, low, high):
    """d(low) = high and d(high) = e.high on a module of the file, low of
    degree 0 and high of degree 1: then d^2(low) = e.high is not zero."""

    def value(basis):
        return [{"generator": high, "terms": [{"basis": basis, "coeff": ONE}]}]

    differential = [{"generator": low, "value": value("1")}, {"generator": high, "value": value("e")}]
    return _set((module, "differential"), differential)


NONCLOSED_CARRIER = ("abelian.algebroid.json", _nonclosed("carrier", "g0", "g1"))
RANK2 = ("rank2.geometric.json", None)

# (command, check title) -> the line's witness, a shipped fixture and a
# mutation of it (None: the fixture as shipped) on which the line reports,
# or a marker for a line that no accepted file makes report.
WITNESSES = {
    ("validate", "base-algebra"): (  # e*x = 2 x*e but x*e = x*e
        "abelian.algebroid.json", _set(("base", "products", 0, "terms", 0, "coeff", "num"), 2)
    ),
    ("validate", "carrier-module"): NONCLOSED_CARRIER,
    ("validate", "structure-tables"): (  # {g1|e} = e, {g1|x} = 0: not a derivation on x*e
        "perturbed.algebroid.json",
        _set(("anchors",), [{"arity": 2, "args": ["g1"], "on": "e", "terms": [{"basis": "e", "coeff": ONE}]}]),
    ),
    ("validate", "tangent-and-normal-modules"): ("diagonal.geometric.json", _nonclosed("normal", "n0", "n1")),
    ("validate", "geometric-tensors"): ("rank2.geometric.json", _set(("closed_beta",), True)),
    ("jacobi", "jacobi[n=1]"): NONCLOSED_CARRIER,
    ("jacobi", "jacobi[n=2]"): RANK2,
    ("jacobi", "jacobi[n=3]"): ("perturbed.algebroid.json", None),
    ("jacobi", "jacobi[n=4]"): RANK2,
    **{("leibniz", f"leibniz[n={n}]"): CROSS_CHECK for n in range(1, 5)},
    **{("anchor", f"anchor-morphism[n={n}]"): RANK2 for n in range(1, 4)},
    ("ce-build", "ce-differential"): LISTING,
    ("ce-extract", "extract-structure"): LISTING,
    ("roundtrip", "extract(ce(S)) == S"): CROSS_CHECK,
    ("roundtrip", "degree-shift dictionary round trip on the bracket tables"): CROSS_CHECK,
    ("roundtrip", "recursion == extraction"): CROSS_CHECK,
    ("frakd-build", "assemble"): LISTING,
    ("frakd-build", "weight-graded part equals d0"): CROSS_CHECK,
    ("frakd-square", "square-components"): RANK2,
    ("kapranov", "diagonal-regime derivation"): LISTING,
    ("kapranov", "square (curvature-compatibility residuals)"): RANK2,
    ("lemmas", "retraction: normal projection of the expansion is the identity"): CROSS_CHECK,
    ("lemmas", "projection commutator equals the Kodaira-Spencer substitution"): CROSS_CHECK,
    ("lemmas", "single-tangent transport identity and its iterate"): CROSS_CHECK,
    ("mc", "maurer-cartan residual (seed=0)"): NONCLOSED_CARRIER,
    ("mc", "conjugated differential squares to zero"): NONCLOSED_CARRIER,
    ("duality", "ce(structure) == assembled differential"): CROSS_CHECK,
}


def _statuses(command, path, tmp_path):
    """{check title: status} of command's report on the file at path, or
    None when the command refuses the file."""
    out = tmp_path / "report.json"
    if out.exists():
        out.unlink()
    main([command, str(path), "--json", str(out)])
    if not out.exists():
        return None
    return {c["name"]: c["status"] for c in json.loads(out.read_text())["checks"]}


def test_every_printed_check_line_has_a_witness_or_a_marker(model_dir, tmp_path, capsys):
    printed = set()
    for command in COMMANDS:
        for path in sorted(model_dir.iterdir()):
            printed.update((command, title) for title in _statuses(command, path, tmp_path) or ())
    capsys.readouterr()
    assert sorted(printed - set(WITNESSES)) == []
    assert sorted(set(WITNESSES) - printed) == []


@pytest.mark.parametrize(
    "line", [line for line, w in WITNESSES.items() if isinstance(w, tuple)], ids=lambda line: ":".join(line)
)
def test_each_witness_makes_its_line_report(model_dir, tmp_path, capsys, line):
    """The line fails on its witness; a mutation is what makes it fail, as
    the line passes on the shipped fixture."""
    command, title = line
    fixture, mutate = WITNESSES[line]
    if mutate is not None:
        assert _statuses(command, model_dir / fixture, tmp_path)[title] == "pass"
        path = _mutated(model_dir, tmp_path, fixture, "witness", mutate)
    else:
        path = model_dir / fixture
    assert _statuses(command, path, tmp_path)[title] == "fail"
    capsys.readouterr()
