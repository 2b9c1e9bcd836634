"""Each residual family is one library call, checked against the loop it
replaced: the anchor morphism built once and read arity by arity, D o D with
one pair of ``apply`` calls per generator (``square`` reads D(x) off D's
table and applies D once), and the generator-by-generator
comparisons of ``mc`` and ``duality``.  Also the known disagreement of the
anchor-morphism residual with D^2 (ROADMAP item 14), as a strict xfail."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroidkit.algebroid import (
    AlgebroidStructure,
    algebroid_jacobi_residual,
    anchor_morphism_residual,
    ce_differential,
    d0_derivation,
    leibniz_residual,
)
from algebroidkit.cli import main
from algebroidkit.errors import CapError
from algebroidkit.fixtures import (
    mixed_module,
    nontrivial_dga,
    random_geometric_model,
    random_unipotent,
)
from algebroidkit.geometry import GeometricModel, build_frakD, build_kapranov, duality_residual, structure_from_geometry
from algebroidkit.modelio import parse_model
from algebroidkit.modules import FreeModule, ModuleElement
from algebroidkit.scalars import ONE
from algebroidkit.symtensor import SymAlgebra, conjugate, mc_residual, square, square_components
from builders import Rng, random_algebroid, sample_bases
from geometry_oracle import oracle_duality_residual
from linfty_oracle import closed_form_anchor_morphism_residual, oracle_anchor_morphism_residual
from symtensor_oracle import oracle_square_components, oracle_squares_difference

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def _models(workloads):
    """The 8 shipped fixtures and both generated benchmark models (seed 0)."""
    models = {path.name: parse_model(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))}
    assert len(models) == 8
    for name in sorted(workloads.GENERATED):
        models[name] = parse_model(workloads.generate_model_text(name, 0))
    return models


def _structure(model) -> AlgebroidStructure:
    return model if isinstance(model, AlgebroidStructure) else structure_from_geometry(model)


def _regression_model() -> AlgebroidStructure:
    """The accepted model whose anchor residual differs from D^2 (pinned by
    ``tests/test_algebroid.py``): anchors up to arity 4."""
    base = nontrivial_dga()
    carrier = mixed_module(base, [1, -1, 0], seed=7)
    return random_algebroid(Rng(1183), base, carrier, bracket_cap=3, derivation_anchors=True, density=0.9)


def _nonclosed_carrier() -> FreeModule:
    """The carrier of the ``abelian`` fixture with d(g0) = g1 and d(g1) = e.g1,
    so d^2(g0) = e.g1: a carrier whose d_L does not square to zero."""
    base = nontrivial_dga()
    L = FreeModule(base, [("g0", 0), ("g1", 1)])
    L.set_differential({0: L.generator(1), 1: ModuleElement(L, {1: base.from_names({"e": ONE})})})
    return L


# -- the anchor morphism ----------------------------------------------------------------


def test_anchor_morphism_residual_matches_the_morphism_built_once(workloads):
    """Every arity up to the bracket cap, on the fixtures, the generated
    models, the regression model and drawn structures with both anchor
    kinds, equal to the morphism and to the closed form summed as
    derivations; some residuals are nonzero."""
    structures = {name: _structure(m) for name, m in _models(workloads).items()}
    structures["regression"] = _regression_model()
    for seed, base in enumerate(sample_bases()):
        for derivation_anchors in (False, True):
            carrier = mixed_module(base, [0, 1, -1], seed=seed)
            S = random_algebroid(Rng(seed), base, carrier, bracket_cap=3, derivation_anchors=derivation_anchors)
            structures[f"drawn {seed} {derivation_anchors}"] = S
    nonzero = set()
    for name, S in structures.items():
        arities = list(range(1, S.bracket_cap + 1))
        got = anchor_morphism_residual(S, arities)
        assert got == oracle_anchor_morphism_residual(S, arities), name
        assert got == closed_form_anchor_morphism_residual(S, arities), name
        if any(got.values()):
            nonzero.add(name)
    assert {"rank2.geometric.json", "generic.geometric.json", "regression"} <= nonzero


@settings(max_examples=100, deadline=None)
@given(
    base_index=st.integers(0, 2),
    degrees=st.lists(st.integers(-1, 2), min_size=1, max_size=3),
    derivation_anchors=st.booleans(),
    bracket_cap=st.integers(2, 4),
    seed=st.integers(0, 2**16),
)
def test_anchor_morphism_residual_matches_the_morphism_on_drawn_structures(
    base_index, degrees, derivation_anchors, bracket_cap, seed
):
    """The row sums equal the morphism built once and read through the
    partition sum, and the closed form summed as derivations, at every arity
    up to the cap, on drawn carriers (odd and even generators) with both
    anchor kinds."""
    base = sample_bases()[base_index]
    carrier = mixed_module(base, degrees, seed=seed % 5)
    S = random_algebroid(
        Rng(seed), base, carrier, bracket_cap=bracket_cap, derivation_anchors=derivation_anchors, density=0.7
    )
    arities = list(range(1, bracket_cap + 1))
    got = anchor_morphism_residual(S, arities)
    assert got == oracle_anchor_morphism_residual(S, arities)
    assert got == closed_form_anchor_morphism_residual(S, arities)


def test_anchor_morphism_residual_refuses_an_arity_over_the_cap_as_the_oracle_does():
    S = _regression_model()
    for arities in ([4], [1, 5]):
        with pytest.raises(CapError, match="^bracket arity [45] exceeds cap 3$"):
            anchor_morphism_residual(S, arities)
        with pytest.raises(CapError, match="^bracket arity [45] exceeds cap 3$"):
            oracle_anchor_morphism_residual(S, arities)
    # on a carrier of rank 0 the oracle has no key to refuse; the one rule
    # of ``AlgebroidStructure.refuse_over_cap`` refuses the arity all the same
    empty = AlgebroidStructure(S.base, FreeModule(S.base, []), bracket_cap=3)
    assert oracle_anchor_morphism_residual(empty, [5]) == {5: {}}
    with pytest.raises(CapError, match="^bracket arity 5 exceeds cap 3$"):
        anchor_morphism_residual(empty, [5])


@pytest.mark.parametrize("family", ["jacobi", "leibniz", "anchor"])
def test_every_family_refuses_an_arity_over_the_cap_on_a_rank_0_carrier(tmp_path, capsys, family):
    """One rule for the three families: an arity over the bracket cap is
    refused, also on a carrier with no generator, and the arities up to the
    cap run.  Through the CLI: ``--arity 7`` on the abelian fixture with its
    carrier emptied exits 2 with the refusal, and ``--arity 4`` exits 0."""
    call = {
        "jacobi": lambda S, n: algebroid_jacobi_residual(S, [n])[n],
        "leibniz": leibniz_residual,
        "anchor": lambda S, n: anchor_morphism_residual(S, [n])[n],
    }[family]
    base = nontrivial_dga()
    S = AlgebroidStructure(base, FreeModule(base, []), bracket_cap=3)
    for n in (4, 7):
        with pytest.raises(CapError, match=f"^bracket arity {n} exceeds cap 3$"):
            call(S, n)
    for n in (1, 2, 3):
        assert call(S, n) == {}

    doc = json.loads((FIXTURES / "abelian.algebroid.json").read_text())
    doc["carrier"] = {"generators": []}
    path = tmp_path / "rank0.algebroid.json"
    path.write_text(json.dumps(doc))
    assert main([family, str(path), "--arity", "7"]) == 2
    assert capsys.readouterr().err == "error: bracket arity 7 exceeds cap 4\n"
    assert main([family, str(path), "--arity", "4"]) == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: the anchor residual is not yet read off D^2")
def test_every_anchor_residual_sits_where_d_squared_has_a_word_of_its_arity():
    """On the regression model, ``anchor --arity 3`` reports (g1,g2,g2) on x,
    but D^2(x) has only a weight-2 word.  Once ``anchor`` reads D^2, each
    residual at arity n sits on a basis element whose D^2 value has a
    weight-n word."""
    S = _regression_model()
    D2 = square(ce_differential(S, S.bracket_cap))
    residuals = anchor_morphism_residual(S, [1, 2, 3])
    assert residuals[3]
    for n, res in residuals.items():
        for key, der in res.items():
            for b, val in der.items():
                value = D2.on_algebra.get(b)
                assert value is not None and n in value.weights(), (n, key, S.base.names[b])


# -- D o D and the generator comparisons ------------------------------------------------


def _derivations(workloads):
    """name -> a derivation every command squares: the CE differential of each
    structure, and the assembled and Kapranov differentials of each
    geometric model."""
    out = {}
    for name, model in _models(workloads).items():
        S = _structure(model)
        cap = model.cap if isinstance(model, GeometricModel) else S.bracket_cap
        out[f"ce {name}"] = ce_differential(S, cap)
        if isinstance(model, GeometricModel):
            out[f"frakD {name}"] = build_frakD(model)
            out[f"kapranov {name}"] = build_kapranov(model)
    return out


def test_square_components_match_the_per_generator_loop(workloads):
    nonzero = 0
    for name, D in _derivations(workloads).items():
        got = square_components(D)
        assert got == oracle_square_components(D), name
        nonzero += bool(got)
    assert nonzero >= 3


@settings(max_examples=100)
@given(
    base_index=st.integers(0, 2),
    tangent=st.lists(st.integers(-1, 1), min_size=1, max_size=2),
    normal=st.lists(st.integers(-1, 1), min_size=1, max_size=3),
    cap=st.integers(1, 4),
    bracket_cap=st.integers(2, 4),
    derivation_anchors=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_square_components_match_the_per_generator_loop_on_drawn_models(
    base_index, tangent, normal, cap, bracket_cap, derivation_anchors, seed
):
    """``square`` reads D(x) off D's table and applies D once; the oracle
    applies D twice to every generator.  They agree on ``build_frakD`` and
    ``build_kapranov`` of drawn geometric models (odd and even tangent and
    normal letters, caps 1..4) and on ``ce_differential`` of drawn
    structures with both anchor kinds."""
    base = sample_bases()[base_index]
    g = random_geometric_model(Rng(seed), base, tangent, normal, cap=cap, density=0.6, seed_modules=seed % 5)
    carrier = mixed_module(base, normal, seed=seed % 5)
    S = random_algebroid(
        Rng(seed), base, carrier, bracket_cap=bracket_cap, derivation_anchors=derivation_anchors, density=0.7
    )
    for D in (build_frakD(g), build_kapranov(g), ce_differential(S, bracket_cap)):
        assert square_components(D) == oracle_square_components(D)


def _mc_inputs(workloads):
    """name -> (D0, C = Phi D0 Phi^{-1}) as ``mc`` builds them at seed 0, on
    every model and on the carrier whose d_L does not square to zero."""
    carriers = {
        name: (model.carrier, model.bracket_cap) if isinstance(model, AlgebroidStructure) else (model.normal, model.cap)
        for name, model in _models(workloads).items()
    }
    carriers["nonclosed"] = _nonclosed_carrier(), 4
    out = {}
    for name, (carrier, cap) in carriers.items():
        alg = SymAlgebra.over_module(carrier, cap=cap)
        D0 = d0_derivation(alg, carrier)
        out[name] = D0, conjugate(random_unipotent(Rng(0), alg), D0)
    return out


def test_mc_residual_matches_the_per_generator_loop(workloads):
    """Empty on every model, nonzero on the non-closed carrier."""
    for name, (D0, C) in _mc_inputs(workloads).items():
        got = mc_residual(D0, C)
        assert got == oracle_squares_difference(D0, C), name
        assert bool(got) == (name == "nonclosed"), name


def test_duality_residual_matches_the_per_generator_loop(workloads):
    """Empty on every geometric model.  The nonzero case is a code mutation:
    ``tests/test_geometry.py::test_a_wrong_shape_position_sign_fails_the_oracle_comparison``
    flips a sign and compares the two there."""
    for name, model in _models(workloads).items():
        if isinstance(model, GeometricModel):
            assert duality_residual(model) == oracle_duality_residual(model) == {}, name
