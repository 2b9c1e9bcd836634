"""Geometry front-end: operators, lemmas, the main differential, duality."""

from __future__ import annotations

import json
import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algebroidkit import algebroid, geometry, linfty, modules, symtensor
from algebroidkit.algebra import AlgebraElement
from algebroidkit.algebroid import AlgebroidStructure, d0_derivation, extract_structure
from algebroidkit.cli import main
from algebroidkit.errors import BaseMismatch, DegreeError, KitError, ParseError
from algebroidkit.fixtures import (
    diagonal_model,
    eps_nilpotent_model,
    fixture_corpus,
    kodaira_base,
    lambda_eps,
    mixed_module,
    nontrivial_dga,
    random_geometric_model,
    trivial_model,
    truncated_poly,
)
from algebroidkit.geometry import (
    TENSOR_FAMILIES,
    GeometricModel,
    _grid,
    build_frakD,
    build_kapranov,
    commutator_lemma_residual,
    duality_residual,
    geometric_degree_problems,
    retraction_residual,
    structure_from_geometry,
    transport_lemma_residual,
    validate_geometric_model,
)
from algebroidkit.modelio import parse_model, serialize_model
from algebroidkit.linfty import BracketTable
from algebroidkit.modules import FreeModule, ModuleElement
from algebroidkit.scalars import MINUS_ONE, ONE, Scalar, sign_scalar
from algebroidkit.signs import _nonvanishing_keys, enumerate_unshuffles, sym_sign
from algebroidkit.symtensor import DerivationD, SymAlgebra, SymElement, evaluate, square_components
from builders import Rng, sample_bases, trivial_base
from geometry_oracle import (
    from_dual_values,
    oracle_ambient_d0,
    oracle_contraction_table,
    oracle_dhat_rows,
    oracle_build_frakD,
    oracle_build_kapranov,
    oracle_duality_residual,
    oracle_geometric_degree_problems,
    oracle_structure_from_geometry,
    oracle_tangent_series,
    p1,
    project_bidegree,
)
from symtensor_oracle import derivation_sum


def _spanning(alg):
    for w, b in _grid(alg):
        yield SymElement(alg, {w: alg.base.basis_element(b)})


def pi_tilde(g, mu):
    """Sum of iterated symmetrized derivatives, truncated at the weight cap:
    mu + sum_{k = 1..cap} nabla_bar^k(mu), iterated on the whole element."""
    power = total = g.to_amb(mu)
    for _ in range(g.cap):
        power = g.nabla_bar(power)
        total = total + power
    return total


@contextmanager
def mutated(g, beta=None, shape=None):
    """g with its beta table replaced by beta, or its Shape derivation by the
    one of the table shape, restored on exit: code mutations of the two
    operator lemmas.  The ambient d0 reads g.beta when it is built, while
    beta-tilde (g._beta_tilde) and the cut D1 were built with the model, so each
    mutation moves one side of its lemma only."""
    with pytest.MonkeyPatch.context() as patch:
        if beta is not None:
            patch.setattr(g, "beta", beta)
        if shape is not None:
            patch.setattr(g, "_shape", DerivationD(g.amb, {}, dict(shape), degree=0, check=False))
        yield g


def nabla_perp_bar(g, el):
    """Normal-connection derivative: Gamma plus dhat only, no rescale; an
    element of the normal algebra is moved to the ambient one first."""
    if el.algebra.letter_names == g.nor.letter_names:
        el = g.to_amb(el)
    return g._nabla_perp.apply(el)


def small_random_model(seed, base=None, families=None, cap=4):
    rng = Rng(seed)
    return random_geometric_model(
        rng,
        base if base is not None else nontrivial_dga(),
        [0, 1],
        [0, -1],
        cap=cap,
        families=families or tuple(fam.name for fam in TENSOR_FAMILIES),
        seed_modules=seed,
    )


# -- validation ----------------------------------------------------------------


def test_trivial_model_validates():
    assert validate_geometric_model(trivial_model()) == []


def test_random_models_validate():
    for seed in range(4):
        assert validate_geometric_model(small_random_model(seed)) == []


def test_dhat_leibniz_violation_reported():
    base = nontrivial_dga()
    Tm = FreeModule(base, [("t0", 0)], name="Tm")
    Nm = FreeModule(base, [("n0", 0)], name="Nm")
    probe = GeometricModel(base, Tm, Nm, cap=3)
    # dhat(x) = t0^ alone is not a Leibniz map because x*x = 0
    dhat = {base.index_of("x"): SymElement(probe.amb, {(0,): base.one()})}
    g = GeometricModel(base, Tm, Nm, cap=3, dhat=dhat)
    problems = validate_geometric_model(g)
    assert problems == [
        f"dhat violates Leibniz on ({a}, {b})"
        for a, b in (("e", "x"), ("x", "e"), ("x", "x"), ("x", "x*e"), ("x*e", "x"))
    ]


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("case", ["dhat", "closed_beta"])
def test_geometric_model_message_witness(case, closed):
    """One input per message of ``validate_geometric_model``, one tangent
    letter t0 and one normal letter n0 of degree 0.  Over K[u]/(u^3),
    dhat(u) = u.t0^ and dhat(u^2) = 0 break Leibniz on (u, u) alone.  Over
    the Kodaira base, where d(e) = u, beta(t0) = e.n0^ is not closed, which
    only the closed flag asks about."""
    base = truncated_poly("u", 2, 3) if case == "dhat" else kodaira_base()
    Tm = FreeModule(base, [("t0", 0)], name="Tm")
    Nm = FreeModule(base, [("n0", 0)], name="Nm")
    frame = GeometricModel(base, Tm, Nm, cap=3)
    if case == "dhat":
        tensors = {"dhat": {1: SymElement(frame.amb, {(0,): base.basis_element(1)})}}
        problems = ["dhat violates Leibniz on (u, u)"]
    else:
        tensors = {"beta": {0: SymElement(frame.nor, {(0,): base.from_names({"e|1": ONE})})}}
        problems = ["closed flag set but d(beta) != 0 at tangent letter 0"] if closed else []
    g = GeometricModel(base, Tm, Nm, cap=3, closed_beta=closed, **tensors)
    assert validate_geometric_model(g) == problems


def test_nabla_bar_evaluation_counting():
    """1/m weighting against the multiset count of the evaluation pairing:
    with nabla_hat(t0^) = t0^ t0^, nabla_bar(t0^ n0^) = (1/2) t0^ t0^ n0^."""
    g = _one_by_one_model(3, conn_tan={0: {(0, 0): 1}})
    out = g.nabla_bar(g.amb.word((0, 1)))
    assert out == g.amb.word((0, 0, 1)).scale(Scalar(Fraction(1, 2)))
    frame = FreeModule(g.base, [("t0", 0), ("n0", 0)], name="Ym")  # the split ambient frame
    val = evaluate(out, [frame.generator(0), frame.generator(0), frame.generator(1)], frame)
    assert val == g.base.one()  # 2 pairings x 1/2


# -- operators ---------------------------------------------------------------------


def test_nabla_bar_weight_zero_rule():
    g = small_random_model(2)
    for bidx in range(g.base.dim):
        a = g.base.basis_element(bidx)
        assert g.nabla_bar(g.amb.scalar(a)) == g.dhat[bidx]


def test_nabla_bar_single_normal_letter():
    """Gamma lands with weight one, the second-form block with weight 1/2."""
    base = nontrivial_dga()
    Tm = FreeModule(base, [("t0", 0)], name="Tm")
    Nm = FreeModule(base, [("n0", 0)], name="Nm")
    probe = GeometricModel(base, Tm, Nm, cap=3)
    x = base.from_names({"x": ONE})
    gamma = {0: SymElement(probe.amb, {(0, 1): base.one()})}
    second = {0: SymElement(probe.amb, {(0, 0): x})}
    g = GeometricModel(base, Tm, Nm, cap=3, gamma=gamma, second_form=second)
    out = g.nabla_bar(g.amb.letter(1))
    want = SymElement(
        g.amb, {(0, 1): base.one(), (0, 0): x.scale(Scalar(Fraction(1, 2)))}
    )
    assert out == want


def test_nabla_bar_leibniz_two_sided():
    """The unnormalized operator obeys plain Leibniz; the weighted map is its
    per-word rescale by the output tangent-letter count."""
    g = small_random_model(3)
    rng = Rng(17)
    nabla_hat = g._nabla_hat.apply
    words = [w for r in range(0, 3) for w in g.amb.words_of_weight(r)]
    for _ in range(25):
        wu = rng.choice(words)
        wv = rng.choice(words)
        if len(wu) + len(wv) + 1 > g.cap:
            continue
        cu = rng.algebra_element(g.base, degree=rng.randint(0, 1), zero_chance=0.0)
        cv = rng.algebra_element(g.base, degree=rng.randint(0, 1), zero_chance=0.0)
        u = SymElement(g.amb, {wu: cu})
        v = SymElement(g.amb, {wv: cv})
        assert nabla_hat(u * v) == nabla_hat(u) * v + u * nabla_hat(v)
        # independent rescale oracle
        raw = nabla_hat(u * v)
        rescaled = SymElement(
            g.amb,
            {
                w: c.scale(Scalar(Fraction(1, g.tangent_count(w))))
                for w, c in raw.items()
            },
        )
        assert g.nabla_bar(u * v) == rescaled


def test_nabla_perp_matches_p1_nabla_on_normals():
    g = small_random_model(4)
    for r in range(0, g.cap):
        for w in g.nor.words_of_weight(r):
            for bidx in range(g.base.dim):
                mu = SymElement(g.nor, {w: g.base.basis_element(bidx)})
                lhs = p1(g, g.nabla_bar(g.to_amb(mu)))
                rhs = nabla_perp_bar(g, mu)
                assert lhs == rhs


def test_nabla_perp_weight_zero_is_dhat():
    g = small_random_model(5)
    for bidx in range(g.base.dim):
        mu = g.nor.scalar(g.base.basis_element(bidx))
        assert nabla_perp_bar(g, mu) == g.dhat[bidx]


def test_shape_derivation_zero_and_products():
    g0 = small_random_model(6, families=("dhat", "gamma", "beta"))
    el = g0.to_amb(g0.nor.letter(0))
    assert g0.shape_tilde(nabla_perp_bar(g0, g0.nor.letter(0))).is_zero()

    g = small_random_model(7)
    rng = Rng(23)
    for _ in range(10):
        # u has exactly one tangent letter, mu is pure normal
        u = p1(g, g.nabla_bar(g.to_amb(SymElement(g.nor, {(0,): g.base.one()}))))
        wmu = rng.choice(g.nor.words_of_weight(1) + g.nor.words_of_weight(2))
        mu = g.to_amb(SymElement(g.nor, {wmu: rng.algebra_element(g.base, zero_chance=0.0)}))
        lhs = g.shape_tilde(u * mu)
        rhs = g.shape_tilde(u) * mu
        assert lhs == rhs


def test_shape_rank_one_hand_expansion():
    base = lambda_eps()
    Tm = FreeModule(base, [("t0", 0)], name="Tm")
    Nm = FreeModule(base, [("n0", 0)], name="Nm")
    probe = GeometricModel(base, Tm, Nm, cap=3)
    shape = {0: SymElement(probe.amb, {(0, 1): base.one()})}
    g = GeometricModel(base, Tm, Nm, cap=3, shape=shape)
    xi_nu = SymElement(g.amb, {(0, 1): base.one()})
    out = g.shape_tilde(xi_nu)
    assert out == SymElement(g.amb, {(0, 1, 1): base.one()})


def test_projections_decompose():
    g = small_random_model(8)
    rng = Rng(29)
    pure = g.to_amb(SymElement(g.nor, {(0, 1): g.base.one()}))
    assert project_bidegree(g, pure, 0) == pure and p1(g, pure).is_zero()
    two_tangent = SymElement(g.amb, {(0, 0, g.a): g.base.one()})
    if not two_tangent.is_zero():
        assert project_bidegree(g, two_tangent, 0).is_zero() and p1(g, two_tangent).is_zero()
    for _ in range(10):
        data = {}
        for r in range(g.cap + 1):
            for w in g.amb.words_of_weight(r):
                if rng.random() < 0.5:
                    continue
                data[w] = rng.algebra_element(g.base)
        el = SymElement(g.amb, data)
        rest = el - project_bidegree(g, el, 0) - p1(g, el)
        for w, _ in rest.items():
            assert g.tangent_count(w) >= 2
        assert project_bidegree(g, el, 0) + p1(g, el) + rest == el


# -- pi-tilde and the lemmas ----------------------------------------------------------


def test_pi_tilde_weight_zero_base_case():
    g = small_random_model(9)
    for bidx in range(g.base.dim):
        a = g.base.basis_element(bidx)
        out = pi_tilde(g, g.nor.scalar(a))
        # first two components: a itself, then dhat(a)
        assert out.weight_part(0) == g.amb.scalar(a)
        assert out.weight_part(1) == g.dhat[bidx]


def test_pi_tilde_inclusion_for_flat_model():
    g = small_random_model(10, families=("beta", "curv_perp", "curv_tan"))
    # dhat = gamma = shape = conn = second_form = 0: nabla_bar vanishes
    for r in range(g.cap + 1):
        for w in g.nor.words_of_weight(r):
            mu = SymElement(g.nor, {w: g.base.one()})
            assert pi_tilde(g, mu) == g.to_amb(mu)


def test_pi_tilde_matches_manual_iteration():
    g = small_random_model(11)
    mu = SymElement(g.nor, {(0,): g.base.from_names({"e": ONE})})
    manual = g.to_amb(mu)
    acc = manual
    for _ in range(g.cap):
        manual = g.nabla_bar(manual)
        acc = acc + manual
    assert pi_tilde(g, mu) == acc


def test_retraction_residual_zero_on_models():
    for seed in range(3):
        assert retraction_residual(small_random_model(seed)) == []
    assert retraction_residual(trivial_model()) == []
    assert retraction_residual(eps_nilpotent_model()) == []


def test_commutator_lemma_zero_and_inconsistent_beta():
    g0 = trivial_model()
    assert commutator_lemma_residual(g0) == []
    for seed in range(3):
        g = small_random_model(seed)
        assert commutator_lemma_residual(g) == []
    # inconsistent: ambient differential built from a different beta
    g = small_random_model(12)
    override = dict(g.beta)
    e = g.base.from_names({"e": ONE})
    bump = SymElement(g.nor, {(0,): e})
    override[0] = override.get(0, g.nor.zero()) + bump
    if override[0].degree() == g.amb.letter_degrees[0] + 1:
        with mutated(g, beta=override):
            assert commutator_lemma_residual(g) != []


def test_transport_lemma_zero_and_mismatched_shape():
    for seed in range(3):
        g = small_random_model(seed)
        assert transport_lemma_residual(g) == []
    g = small_random_model(13)
    override = dict(g.shape)
    bump = SymElement(g.amb, {(0, g.a): g.base.one()})
    cand = override.get(0, g.amb.zero()) + bump
    if cand.degree() == g.amb.letter_degrees[0]:
        override[0] = cand
        with mutated(g, shape=override):
            assert transport_lemma_residual(g) != []


# -- the main differential -------------------------------------------------------------


def test_frakd_trivial_is_d0():
    g = trivial_model()
    assert build_frakD(g) == g.normal_d0()
    assert square_components(build_frakD(g)) == {}


def test_frakd_eps_nilpotent():
    g = eps_nilpotent_model()
    D = build_frakD(g)
    D0 = g.normal_d0()
    # D = D0 + Rperp_2 exactly
    diff = derivation_sum(D, D0, MINUS_ONE)
    assert list(diff.on_letters) == [0]
    assert diff.on_letters[0] == g.curv_perp[2][0]
    assert diff.on_algebra == {}
    assert square_components(build_frakD(g)) == {}


def _odd_letter_draws():
    """Generated models with odd tangent and odd normal letters, over each
    sample base."""
    profiles = [([1, 0], [1, -1]), ([-1], [1, 1, 0]), ([1, 1], [-1, 0])]
    draws = {
        f"odd-draw-{k}": random_geometric_model(
            Rng(60 + k), base, tangent, normal, cap=4, density=0.6, seed_modules=600 + k
        )
        for k, (base, (tangent, normal)) in enumerate(zip(sample_bases(), profiles))
    }
    draws["two-odd-normals"] = _two_odd_normals_model()
    return draws


def _duality_models(workloads):
    """The models both sides of the duality are compared with their oracles
    on: the five geometric fixtures at their stored cap and at cap + 1, both
    generated benchmark models at seeds 0 and 5, and the odd-letter draws."""
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    models = {}
    for path in sorted(fixtures.glob("*.geometric.json")):
        text = path.read_text()
        g = parse_model(text)
        models[f"{path.name}@W={g.cap}"] = g
        models[f"{path.name}@W={g.cap + 1}"] = parse_model(text, weight_override=g.cap + 1)
    assert len(models) == 10
    for name in workloads.GENERATED:
        for seed in (0, 5):
            models[f"{name}@seed={seed}"] = parse_model(workloads.generate_model_text(name, seed))
    models.update(_odd_letter_draws())
    return models


def test_build_frakD_matches_the_term_by_term_oracle(workloads):
    """Both sides of the assembled differential, D(e_b) and D(nu_j), equal
    their term-by-term substitution with the per-p bounds of the Rtan_p o
    Shape^q series, on every duality model; some model has an Rtan_p term
    with p >= 2 behind a Shape power on each side."""
    reached = set()
    for name, g in _duality_models(workloads).items():
        D = build_frakD(g)
        assert (D.on_algebra, D.on_letters) == oracle_build_frakD(g), name
        if g.curv_tan and any(not g.shape_tilde(g.dhat[b]).is_zero() for b in range(g.base.dim)):
            reached.add("base")
        if g.curv_tan and any(not g.shape_tilde(g.gamma[j]).is_zero() for j in range(g.b)):
            reached.add("letters")
    assert reached == {"base", "letters"}


def _series_starts(g):
    """The starts ``build_frakD`` gives ``_tangent_series`` (dhat of every
    basis element, Gamma of every normal letter), and each start less its
    Shape image, whose Shape powers cancel against each other in the sum."""
    starts = [g.dhat[b] for b in range(g.base.dim)] + [g.gamma[j] for j in range(g.b)]
    return starts + [v - g.shape_tilde(v) for v in starts]


def test_tangent_series_matches_the_two_step_oracle(workloads):
    """One Rtan walk over the unsummed terms of the Shape powers equals the
    powers summed first and substituted by one Rtan apply, on every duality
    model; some series is nonzero and some has a Shape power."""
    nonzero = powers = 0
    for name, g in _duality_models(workloads).items():
        for start in _series_starts(g):
            got = geometry._tangent_series(g, start)
            assert got == oracle_tangent_series(g, start), name
            nonzero += not got.is_zero()
            powers += not g.shape_tilde(start).is_zero()
    assert nonzero and powers


@given(
    base=st.sampled_from(sample_bases()),
    tangent=st.lists(st.integers(-1, 1), min_size=1, max_size=3),
    normal=st.lists(st.integers(-1, 1), min_size=1, max_size=3),
    cap=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_tangent_series_matches_the_two_step_oracle_on_drawn_models(base, tangent, normal, cap, seed):
    """The same on ``random_geometric_model`` draws: odd and even tangent and
    normal letters, caps 1..5."""
    g = random_geometric_model(Rng(seed), base, tangent, normal, cap=cap, density=0.7, seed_modules=seed % 7)
    for start in _series_starts(g):
        assert geometry._tangent_series(g, start) == oracle_tangent_series(g, start)


def test_build_frakD_applies_each_series_once_per_shape_power(workloads, monkeypatch):
    """build_frakD makes at most cap - 1 Shape applies and one Rtan walk per
    series start (dhat of a basis element, Gamma of a normal letter), none
    for a zero start, and no other apply or walk: Rtan is never applied."""
    g = parse_model(workloads.generate_model_text("gen_a3_b4_w5.geometric", 0))
    calls = []
    walks = []
    counts = []
    apply = DerivationD.apply
    walk = DerivationD._walk
    series = geometry._tangent_series

    def counting_apply(self, element):
        calls.append(self)
        return apply(self, element)

    def counting_walk(self, terms):
        if self is g._rtan:
            walks.append(self)
        return walk(self, terms)

    def counting_series(model, start):
        before = len(calls), len(walks)
        out = series(model, start)
        counts.append((len(calls) - before[0], len(walks) - before[1], start.is_zero()))
        return out

    monkeypatch.setattr(DerivationD, "apply", counting_apply)
    monkeypatch.setattr(DerivationD, "_walk", counting_walk)
    monkeypatch.setattr(geometry, "_tangent_series", counting_series)
    build_frakD(g)
    assert len(counts) == g.base.dim + g.b
    assert 0 < max(applies for applies, _, _ in counts) <= g.cap - 1
    assert all(walked == (not zero) for _, walked, zero in counts)
    assert len(calls) == sum(applies for applies, _, _ in counts)
    assert {id(der) for der in calls} == {id(g._shape)}
    assert len(walks) == sum(walked for _, walked, _ in counts)


def test_build_frakD_checks_each_part_once(workloads, monkeypatch, tmp_path):
    """A frakd-square checks the degree of each stored value once, where it
    is built: the normal d0 in ``d0_derivation`` and the two tangent series
    in ``build_frakD``, whose sums with the Rperp values (which the model's
    rows fix) are not checked again.  So no stored value of the
    differential is read twice."""
    text = workloads.generate_model_text("gen_a3_b4_w5.geometric", 0)
    g = parse_model(text)
    d0 = g.normal_d0()
    series = [(g.base.names[b], geometry._tangent_series(g, g.dhat[b])) for b in range(g.base.dim)]
    series += [(g.nor.letter_names[j], geometry._tangent_series(g, g.gamma[j])) for j in range(g.b)]
    parts = [(label, repr(v)) for _, label, _, v in d0.labelled()]
    parts += [(label, repr(v)) for label, v in series if v.coeffs]
    D = build_frakD(g)
    stored = [label for _, label, _, _ in D.labelled()]
    assert len(d0.on_algebra) and len(stored) == len(parts)
    read = []
    check = DerivationD._check_degrees

    def counting(self):
        read.extend((label, repr(v)) for _, label, _, v in self.labelled())
        check(self)

    monkeypatch.setattr(DerivationD, "_check_degrees", counting)
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main(["frakd-square", str(path), "--json", str(tmp_path / "report.json")]) in (0, 1)
    assert read == parts
    assert sorted(label for label, _ in read) == sorted(stored)


def test_build_frakD_refuses_a_series_of_the_wrong_degree(workloads, monkeypatch):
    """The tangent series are checked where they are built: one that has
    degree 0 instead of the degree 1 of the differential is refused."""
    g = parse_model(workloads.generate_model_text("gen_a3_b4_w5.geometric", 0))
    series = geometry._tangent_series

    def wrong(model, start):
        out = series(model, start)
        return out if out.is_zero() else model.nor.scalar(model.base.one())

    monkeypatch.setattr(geometry, "_tangent_series", wrong)
    with pytest.raises(DegreeError, match="has degree 0, expected"):
        build_frakD(g)


def test_frakd_square_random_localizes():
    g = small_random_model(15)
    report = square_components(build_frakD(g))
    if report:
        lowest = min(report)
        assert all(k >= lowest for k in report)


# -- Kapranov regime ----------------------------------------------------------------


def kapranov_model(base, normal, curv_perp=None):
    """Kapranov's regime as a model at cap 4: no tangent letters, and the
    curvature R_n stored as Rperp_n."""
    return GeometricModel(base, FreeModule(base, [], name="Tm"), normal, cap=4, curv_perp=curv_perp or {})


def test_kapranov_zero_curvature_is_d0():
    base = nontrivial_dga()
    Nm = mixed_module(base, [0, 1], prefix="n", seed=2)
    D = build_kapranov(kapranov_model(base, Nm))
    assert D == d0_derivation(D.algebra, Nm)


def test_kapranov_eps_nilpotent_squares_to_zero():
    base = lambda_eps()
    Nm = FreeModule(base, [("n0", 0)], name="Nm")
    alg = SymAlgebra.over_module(Nm, cap=4)
    e = base.from_names({"e": ONE})
    r2 = SymElement(alg, {(0, 0): e})
    D = build_kapranov(kapranov_model(base, Nm, {2: {0: r2}}))
    assert square_components(D) == {}


def test_kapranov_square_sees_bianchi_defect():
    """d_A-noncompatible curvature shows up in the square at weight shift 1."""
    base = kodaira_base()
    Nm = FreeModule(base, [("n0", 0)], name="Nm")
    alg = SymAlgebra.over_module(Nm, cap=4)
    c = base.from_names({"e|1": ONE})  # d(e|1) = 1|u != 0
    r2 = SymElement(alg, {(0, 0): c})
    D = build_kapranov(kapranov_model(base, Nm, {2: {0: r2}}))
    sq = square_components(D)
    assert sq and min(sq) == 1


def _word_tables(D):
    return {b: v.data for b, v in D.on_algebra.items()}, {j: v.data for j, v in D.on_letters.items()}


def test_diagonal_regime_matches_kapranov():
    """In the diagonal regime (beta = shape = 0, only Rperp) the assembled
    differential is Kapranov's; both match d0 + sum_k Rperp_k built on an
    algebra of its own, and on a model with tangent tensors Kapranov's part
    reads none of them."""
    rng = Rng(41)
    g = diagonal_model(rng, nontrivial_dga(), [0, 1], cap=4)
    assert all(v.is_zero() for v in g.beta.values())
    assert g.curv_perp
    want = oracle_build_kapranov(g)
    assert _word_tables(build_frakD(g)) == _word_tables(build_kapranov(g)) == want
    # anchors of the emitted structure vanish
    S = structure_from_geometry(g)
    assert S.anchors == {}
    g = fixture_corpus()["rank2.geometric"]
    assert _word_tables(build_kapranov(g)) == oracle_build_kapranov(g) != _word_tables(build_frakD(g))


# -- central duality ----------------------------------------------------------------


def test_central_duality_on_fixture_zoo():
    models = [trivial_model(), eps_nilpotent_model()]
    for seed in range(4):
        models.append(small_random_model(seed))
    models.append(small_random_model(20, base=kodaira_base()))
    models.append(small_random_model(21, base=lambda_eps()))
    rng = Rng(55)
    models.append(diagonal_model(rng, kodaira_base(), [0, -1], cap=4))
    for g in models:
        assert duality_residual(g) == {}


def test_duality_holds_for_non_integrable_models():
    g = small_random_model(16)
    assert square_components(build_frakD(g)) != {} or True  # integrability not required
    assert duality_residual(g) == {}


def _oracle_structure(g):
    """The alpha/ell recursion through the general ``evaluate`` path: every
    argument embedded in a frame module of the split ambient letters, every
    pairing re-evaluated on the whole tensor, and every Sh(n-1,1) term
    signed by ``sym_sign`` of its Permutation."""
    frame = FreeModule(
        g.base,
        list(zip(g.tangent.gen_names + g.normal.gen_names, g.tangent.degrees + g.normal.degrees)),
        name="Ym",
    )

    def embed(v, offset):
        return ModuleElement(frame, {offset + i: c for i, c in v.items()})

    def transpose(table, target, twist, key):
        args = [frame.generator(g.a + i) for i in key]
        values = {}
        for i in range(target.rank):
            el = table.get(i)
            if el is not None and not el.is_zero():
                pairing = evaluate(g.to_amb(el), args, frame)
                values[i] = pairing.scale(sign_scalar(twist - target.degrees[i]))
        return from_dual_values(target, values)

    def contract(table, target, sign, V, k):
        args = [embed(V, 0), frame.generator(g.a + k)]
        values = {i: evaluate(el, args, frame).scale(sign) for i, el in table.items()}
        return from_dual_values(target, values)

    def vector_action(V, b):
        acc = g.base.zero()
        for dv, hv in V.homogeneous_parts().items():
            for da, ha in g.dhat[b].homogeneous_parts().items():
                acc = acc + evaluate(ha, [embed(hv, 0)], frame).scale(sign_scalar(dv * da))
        return acc

    def step(key, curvature, target, twist, table, sign, previous):
        val = transpose(curvature, target, twist, key)
        n = len(key)
        degs = [g.normal.degrees[i] for i in key]
        for sigma in enumerate_unshuffles(n - 1, 1) if previous is not None else []:
            perm = sigma.permute(list(range(n)))
            inner = previous.lookup(tuple(key[p] for p in perm[: n - 1]))
            if inner is not None:
                term = contract(table, target, sign, inner, key[perm[n - 1]])
                val = val + term.scale(Scalar(sym_sign(sigma, degs)))
        return val

    S = AlgebroidStructure(g.base, g.normal, bracket_cap=g.cap)
    alpha_tables = {}
    for n in range(1, g.cap + 1):
        alpha = alpha_tables[n] = BracketTable(g.normal.degrees)
        previous = alpha_tables.get(n - 1)
        for key in _nonvanishing_keys(g.normal.degrees, n):
            alpha.set(key, step(key, g.rtan_tables.get(n, {}), g.tangent, 0, g.shape, ONE, previous))
            if n >= 2:
                ell = step(key, g.curv_perp.get(n, {}), g.normal, 1, g.gamma, MINUS_ONE, previous)
                S.set_bracket(n, key, ell)
    for m, alpha in alpha_tables.items():
        for key, val in alpha.items():
            for b in range(g.base.dim):
                S.set_anchor(m + 1, key, b, vector_action(val, b))
    return S


def _two_odd_normals_model():
    """A generated model with two odd normal generators: the Sh(n-1,1) terms
    of a key carry different signs."""
    return random_geometric_model(
        Rng(5), nontrivial_dga(), [1, 1, 0], [1, 1, -1], cap=4, density=0.6, seed_modules=105
    )


def test_structure_from_geometry_matches_the_evaluate_oracle():
    """The table reads of structure_from_geometry agree with the evaluate-based
    recursion on every shipped geometric fixture and on generated models with
    odd degrees, whose structures have brackets (and anchors, where dhat is
    not zero) to compare."""
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    models = {path.name: parse_model(path.read_text()) for path in sorted(fixtures.glob("*.geometric.json"))}
    assert len(models) == 5
    generated = {
        "kodaira-a3-b4": random_geometric_model(
            Rng(0), kodaira_base(), [0, 1, 0], [0, -1, 0, -1], cap=5, seed_modules=1000
        ),
        "kodaira-a2-b3": random_geometric_model(
            Rng(0), kodaira_base(), [-1, 1], [1, 1, 0], cap=5, seed_modules=1000
        ),
        "two-odd-normals": _two_odd_normals_model(),
    }
    models.update(generated)
    for name, g in models.items():
        S = structure_from_geometry(g)
        assert S == _oracle_structure(g), name
        if name in generated:
            assert any(S.brackets.values()), name
            assert any(S.anchors.values()) == name.startswith("kodaira"), name  # dhat = 0 on the other


def _fixture_at(name: str, weight: int):
    """The shipped fixture ``name`` parsed at the given weight cap."""
    path = Path(__file__).resolve().parents[1] / "fixtures" / f"{name}.json"
    return parse_model(path.read_text(), weight_override=weight)


def test_structure_from_geometry_matches_its_oracle(workloads):
    """The coefficient-table recursion, one contraction per run of equal
    letters, emits the structure of the position-by-position recursion
    through ``multilinear_extend``, on every duality model, some with
    brackets and anchors to compare, and on the ``ce_dictionary`` inputs
    rank2 at W=6 and rank1_curved at W=7, whose keys hold runs of up to six
    and seven equal even letters."""
    models = _duality_models(workloads)
    models["rank2.geometric@W=6"] = _fixture_at("rank2.geometric", 6)
    models["rank1_curved.geometric@W=7"] = _fixture_at("rank1_curved.geometric", 7)
    with_anchors = 0
    for name, g in models.items():
        S = structure_from_geometry(g)
        assert S == oracle_structure_from_geometry(g), name
        with_anchors += any(S.anchors.values()) and any(S.brackets.values())
    assert with_anchors >= 4


def _transposes_match_their_oracles(g) -> bool:
    """The ambient d0, the Shape and Gamma contraction rows and the dhat rows
    equal their oracles; whether the model has a contraction or a dhat row.
    The rows hold (basis index, Scalar) pairs, read as AlgebraElements."""
    assert g.ambient_d0() == oracle_ambient_d0(g)
    read = False
    for table, target, exponent, sign in ((g.shape, g.tangent, 0, ONE), (g.gamma, g.normal, 1, MINUS_ONE)):
        rows = geometry._contraction_rows(g, table, target, exponent)
        got = {
            k: {(j,): ModuleElement(target, {i: AlgebraElement(g.base, dict(c)) for i, c in v.items()}) for j, v in r.items()}
            for k, r in rows.items()
        }
        assert got == oracle_contraction_table(g, table, target, sign)
        read |= any(rows.values())
    got = {}
    for j, rows in geometry._dhat_rows(g).items():
        for b, coeffs in rows.items():
            got.setdefault(b, {})[(j,)] = AlgebraElement(g.base, dict(coeffs))
    assert got == {b: rows for b, rows in oracle_dhat_rows(g).items() if rows}
    return read or bool(got)


def test_the_transposes_match_their_oracles(workloads):
    """On every duality model, some with rows to read."""
    read = [name for name, g in _duality_models(workloads).items() if _transposes_match_their_oracles(g)]
    assert len(read) >= 8, read


@given(
    base=st.sampled_from(range(3)),
    tangent=st.lists(st.integers(-1, 1), min_size=1, max_size=2),
    normal=st.lists(st.integers(-1, 1), min_size=1, max_size=3),
    cap=st.integers(1, 4),
    density=st.sampled_from([0.3, 0.6, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_the_transposes_match_their_oracles_on_random_models(base, tangent, normal, cap, density, seed):
    g = random_geometric_model(
        Rng(seed), sample_bases()[base], tangent, normal, cap=cap, density=density, seed_modules=seed
    )
    _transposes_match_their_oracles(g)


@given(
    base=st.sampled_from(range(3)),
    tangent=st.lists(st.integers(-1, 1), min_size=1, max_size=2),
    normal=st.lists(st.integers(-1, 1), min_size=1, max_size=3),
    cap=st.integers(1, 5),
    density=st.sampled_from([0.3, 0.6, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_structure_from_geometry_matches_its_oracle_on_random_models(base, tangent, normal, cap, density, seed):
    g = random_geometric_model(
        Rng(seed), sample_bases()[base], tangent, normal, cap=cap, density=density, seed_modules=seed
    )
    assert structure_from_geometry(g) == oracle_structure_from_geometry(g)


def test_structure_from_geometry_makes_no_multilinear_extend_call(monkeypatch):
    g = _two_odd_normals_model()
    want = oracle_structure_from_geometry(g)

    def refuse(*args):
        raise AssertionError("multilinear_extend called")

    for module in (modules, algebroid, linfty, symtensor, geometry):
        if hasattr(module, "multilinear_extend"):
            monkeypatch.setattr(module, "multilinear_extend", refuse)
    assert structure_from_geometry(g) == want


@pytest.mark.parametrize("weight, calls", [(5, 34), (6, 42)])
def test_structure_from_geometry_contracts_each_run_once(monkeypatch, weight, calls):
    """rank2 at W=5 and W=6 (the ``ce_dictionary`` inputs) makes one Shape and
    one Gamma contraction per (key, distinct letter) and one dhat contraction
    per alpha value: 34 and 42 ``_add_contraction`` calls, where one per
    position made 66 and 92."""
    g = _fixture_at("rank2.geometric", weight)
    want = oracle_structure_from_geometry(g)
    made = []
    add_contraction = geometry._add_contraction

    def counting(*args):
        made.append(args[-1])
        add_contraction(*args)

    monkeypatch.setattr(geometry, "_add_contraction", counting)
    assert structure_from_geometry(g) == want
    assert len(made) == calls
    assert max(made) >= 2  # a run of equal letters contracted once, scaled


def _position_sign_model():
    """A generated model whose structure reads the Sh(n-1,1) position sign
    of a Shape term: two odd normal letters, and dhat, Shape and Gamma
    tables that carry alpha_2 of the two into brackets and anchors."""
    return random_geometric_model(Rng(0), sample_bases()[2], [0], [1, 1, 0], cap=4, density=0.6, seed_modules=0)


@pytest.mark.parametrize("mutation", ["flipped", "dropped"])
def test_a_wrong_shape_position_sign_fails_the_oracle_comparison(monkeypatch, mutation):
    """Code mutations: the Sh(n-1,1) position sign of every Shape term
    flipped, or dropped, the Gamma and dhat terms as they are.  The
    comparison with the oracle fails, and so does the duality, whose residual
    equals that of its generator-by-generator oracle."""
    g = _position_sign_model()
    want = oracle_structure_from_geometry(g)
    assert structure_from_geometry(g) == want and duality_residual(g) == {}
    shape_rows = []
    contraction_rows = geometry._contraction_rows
    add_contraction = geometry._add_contraction

    def recording(model, table, target, sign):
        out = contraction_rows(model, table, target, sign)
        if table is model.shape:
            shape_rows.extend(out.values())
        return out

    def mutated_sign(acc, base, inner, rows, factor):
        if any(rows is shape for shape in shape_rows):
            factor = -factor if mutation == "flipped" else abs(factor)
        add_contraction(acc, base, inner, rows, factor)

    monkeypatch.setattr(geometry, "_contraction_rows", recording)
    monkeypatch.setattr(geometry, "_add_contraction", mutated_sign)
    assert structure_from_geometry(g) != want
    assert duality_residual(g) == oracle_duality_residual(g) != {}


def test_recursion_sign_is_needed_for_duality():
    """The CE differential of the emitted structure matches the assembled one
    on models with two odd normal letters, where the Sh(n-1,1) signs of a
    key differ; on the position-sign model it fails without them
    (``test_a_wrong_shape_position_sign_fails_the_oracle_comparison``)."""
    assert duality_residual(_two_odd_normals_model()) == {}
    assert duality_residual(_position_sign_model()) == {}


def test_structure_from_geometry_abelian_for_trivial():
    S = structure_from_geometry(trivial_model())
    assert S.brackets == {} and S.anchors == {}


def test_structure_matches_extraction_on_integrable_model():
    g = eps_nilpotent_model()
    D = build_frakD(g)
    S_geo = structure_from_geometry(g)
    S_ext = extract_structure(D, g.normal, bracket_cap=g.cap)
    assert set(S_geo.brackets) == set(S_ext.brackets)
    for n in S_geo.brackets:
        assert S_geo.brackets[n].keys() == S_ext.brackets[n].keys()
        for key in S_geo.brackets[n]:
            assert S_geo.brackets[n][key].items() == S_ext.brackets[n][key].items()


def test_conditional_identity_square_iff_structure_residuals():
    """Empty square report <=> the emitted structure passes all residuals."""
    from algebroidkit.algebroid import (
        algebroid_jacobi_residual,
        anchor_morphism_residual,
        leibniz_residual,
    )

    def residuals_empty(S):
        return (
            not any(algebroid_jacobi_residual(S, range(1, 5)).values())
            and all(leibniz_residual(S, m) == {} for m in range(1, 5))
            and all(anchor_morphism_residual(S, [m])[m] == {} for m in range(1, 4))
        )

    integrable = [trivial_model(), eps_nilpotent_model()]
    for g in integrable:
        assert square_components(build_frakD(g)) == {}
        assert residuals_empty(structure_from_geometry(g))
    found_defective = False
    for seed in range(4):
        g = small_random_model(seed)
        sq_empty = square_components(build_frakD(g)) == {}
        res_empty = residuals_empty(structure_from_geometry(g))
        assert sq_empty == res_empty
        if not sq_empty:
            found_defective = True
    assert found_defective


def reference_pi_tilde(g, mu):
    """pi_tilde iterated on the whole element: sum_k nabla_bar^k(mu)."""
    current = g.to_amb(mu)
    acc = current
    for _ in range(g.cap):
        current = g.nabla_bar(current)
        acc = acc + current
    return acc


def test_pi_tilde_matches_whole_element_iteration():
    """pi_tilde adds the iterates of each term with its scalar: inhomogeneous
    elements with non-unit coefficients, normal and ambient."""
    for seed in (16, 17):
        g = small_random_model(seed)
        rng = Rng(seed)
        for _ in range(4):
            for alg in (g.nor, g.amb):
                data = {}
                for r in range(g.cap + 1):
                    words = alg.words_of_weight(r)
                    if words:
                        data[rng.choice(words)] = rng.algebra_element(g.base, zero_chance=0.0)
                mu = SymElement(alg, data)
                assert pi_tilde(g, mu) == reference_pi_tilde(g, mu)


# -- the lemma checks against the full-grid oracles -------------------------------


def oracle_retraction_residual(g):
    """rho-dual o pi-tilde - id on the whole normal grid, through the full pi_tilde."""
    out = []
    for el in _spanning(g.nor):
        residual = g.rho_dual(pi_tilde(g, el)) - el
        if not residual.is_zero():
            out.append((repr(el), residual))
    return out


def oracle_commutator_lemma_residual(g):
    """[rho-dual, d] - beta-tilde o P1 on the whole ambient grid."""
    D0a = g.ambient_d0()
    D0n = g.normal_d0()
    out = []
    for el in _spanning(g.amb):
        lhs = g.rho_dual(D0a.apply(el)) - D0n.apply(g.rho_dual(el))
        rhs = g.rho_dual(g.beta_tilde(p1(g, el)))
        residual = lhs - rhs
        if not residual.is_zero():
            out.append((repr(el), residual))
    return out


def oracle_transport_lemma_residual(g):
    """The transport lemma on the whole ambient grid ("operator @" entries)
    and its iterate P1 nabla_bar^s = shape^(s-1) o nabla_perp on the normal
    grid ("iterate s=" entries), with the full nabla_bar iterates and
    shape^(s-1) carried from s - 1."""
    out = []
    for el in _spanning(g.amb):
        lhs = p1(g, g.nabla_bar(el))
        rhs = nabla_perp_bar(g, g.rho_dual(el)) + g.shape_tilde(p1(g, el))
        residual = lhs - rhs
        if not residual.is_zero():
            out.append((f"operator @ {el!r}", residual))
    for el in _spanning(g.nor):
        iterated = nabla_perp_bar(g, el)
        power = g.to_amb(el)
        for s in range(1, g.cap + 1):
            power = g.nabla_bar(power)
            if s > 1:
                iterated = g.shape_tilde(iterated)
            residual = p1(g, power) - iterated
            if not residual.is_zero():
                out.append((f"iterate s={s} @ {el!r}", residual))
    return out


def transport_against_the_oracle(g, shape=None):
    """Check the transport check against the oracle, on g with its Shape
    derivation built from the table shape if given, and return the
    oracle's (operator, iterate) entry counts: the check reports exactly
    the operator entries (labels, values, order), and the iterate has
    entries only where the operator part has some, so the rows decide it."""
    with mutated(g, shape=shape):
        oracle = oracle_transport_lemma_residual(g)
        got = transport_lemma_residual(g)
    operator = [entry for entry in oracle if entry[0].startswith("operator @ ")]
    iterate = [entry for entry in oracle if entry[0].startswith("iterate s=")]
    assert len(operator) + len(iterate) == len(oracle)
    assert got == operator
    assert operator or not iterate
    return len(operator), len(iterate)


@pytest.mark.parametrize("seed, iterate_entries", [(0, 6), (1, 15), (2, 6), (3, 0)])
def test_transport_check_decides_the_iterate_on_doubled_shape(seed, iterate_entries):
    """Doubled shape data: the check is the oracle's operator part, and the
    oracle's iterate fails (where it does) only along with it."""
    g = small_random_model(seed)
    doubled = {i: v.scale(Scalar(2)) for i, v in g.shape.items()}
    operator, iterate = transport_against_the_oracle(g, doubled)
    assert operator > 0
    assert iterate == iterate_entries


def _one_by_one_model(cap, **tensors):
    """nontrivial_dga with one tangent letter t0 and one normal letter n0, both
    of degree 0; tensors maps a family to {index: {word: coefficient}}."""
    base = nontrivial_dga()
    tangent = FreeModule(base, [("t0", 0)], name="T")
    normal = FreeModule(base, [("n0", 0)], name="N")
    letters = GeometricModel(base, tangent, normal, cap=cap)
    values = {}
    for name, table in tensors.items():
        fam = next(f for f in TENSOR_FAMILIES if f.name == name)
        alg = letters.values_algebra(fam)
        values[name] = {
            i: SymElement(alg, {w: base.from_names({"1": Scalar(c)}) for w, c in value.items()})
            for i, value in table.items()
        }
    return GeometricModel(base, tangent, normal, cap=cap, **values)


def _lemma_models(workloads):
    """The shipped geometric fixtures, the generated benchmark models and the
    odd-degree models of the structure oracle."""
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    models = {path.name: parse_model(path.read_text()) for path in sorted(fixtures.glob("*.geometric.json"))}
    assert len(models) == 5
    for name in sorted(workloads.GENERATED):
        models[name] = parse_model(workloads.generate_model_text(name, 0))
    models["kodaira-a3-b4"] = random_geometric_model(
        Rng(0), kodaira_base(), [0, 1, 0], [0, -1, 0, -1], cap=5, seed_modules=1000
    )
    models["kodaira-a2-b3"] = random_geometric_model(
        Rng(0), kodaira_base(), [-1, 1], [1, 1, 0], cap=5, seed_modules=1000
    )
    models["two-odd-normals"] = _two_odd_normals_model()
    return models


def test_lemma_checks_match_the_full_grid_oracles(workloads):
    """The slice walk and the row differences give the labels, values and
    order of the full-grid checks: on the shipped and generated models, with
    a bumped ambient beta and doubled shape data."""
    entries = {}
    for name, g in _lemma_models(workloads).items():
        assert retraction_residual(g) == oracle_retraction_residual(g), name
        assert commutator_lemma_residual(g) == oracle_commutator_lemma_residual(g), name
        assert transport_against_the_oracle(g) == (0, 0), name
        bumped = {i: v + g.nor.letter(0, g.base.one()).scale(Scalar(i + 1)) for i, v in g.beta.items()}
        doubled = {i: v.scale(Scalar(2)) for i, v in g.shape.items()}
        with mutated(g, beta=bumped):
            got = commutator_lemma_residual(g)
            assert got == oracle_commutator_lemma_residual(g), name
        entries[name, "beta"] = len(got)
        entries[name, "shape"], _ = transport_against_the_oracle(g, doubled)
    assert all(entries[name, "beta"] for name, _ in entries), entries
    assert sum(entries[key] for key in entries if key[1] == "shape") > 0, entries


def test_normal_projection_is_a_left_inverse_of_the_inclusion(workloads):
    """rho-dual o iota = id on the normal grid of the shipped geometric
    fixtures and the generated benchmark models: the identity that leaves
    the retraction check nothing to decide after rule R."""
    models = _lemma_models(workloads)
    names = [name for name in models if name.endswith(".geometric.json")]
    names += sorted(workloads.GENERATED)
    assert len(names) == 7
    for name in names:
        g = models[name]
        for el in _spanning(g.nor):
            assert g.rho_dual(g.to_amb(el)) == el, (name, el)


def _inject_row_fault(rng, g) -> None:
    """One fault in a table of g, in place: a table below its family's least
    weight, a weighted table moved to the next weight, or a value given an
    extra term on a random word and basis element (of any weight, bidegree
    and degree, so that it may fit the row too)."""
    fam = rng.choice(TENSOR_FAMILIES)
    alg = g.values_algebra(fam)
    base = g.base
    kind = rng.choice(["arity", "move", "term", "term"]) if fam.weighted else "term"
    tables = getattr(g, fam.name)
    if kind == "arity":
        tables[rng.randrange(fam.weight)] = {}
    elif kind == "move" and tables:
        k = rng.choice(sorted(tables))
        tables[k + 1] = {**tables.get(k + 1, {}), **tables.pop(k)}
    else:
        if fam.weighted:
            table = tables.setdefault(rng.randrange(fam.weight, g.cap + 1), {})
        else:
            table = tables
        i = rng.randrange(len(g.index_set(fam)[0]))
        word = rng.choice(alg.words_of_weight(rng.randrange(g.cap + 1)) or [()])
        extra = SymElement(alg, {word: base.basis_element(rng.randrange(base.dim))})
        table[i] = table.get(i, alg.zero()) + extra


def test_degree_problems_match_the_former_value_walk(workloads):
    """``geometric_degree_problems`` walks each value once and writes
    messages only for the values that fail there: on models with one to
    three injected degree, bidegree, weight and arity faults it gives the
    problems of ``oracle_geometric_degree_problems``, texts and order."""
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    texts = [path.read_text() for path in sorted(fixtures.glob("*.geometric.json"))]
    texts += [workloads.generate_model_text(name, 0) for name in sorted(workloads.GENERATED)]
    rng = random.Random(43)
    seen = Counter()
    for text in texts:
        assert geometric_degree_problems(parse_model(text)) == []
        for _ in range(25):
            g = parse_model(text)
            for _ in range(rng.randint(1, 3)):
                _inject_row_fault(rng, g)
            problems = geometric_degree_problems(g)
            assert problems == oracle_geometric_degree_problems(g)
            for kind in ("has degree", "is not homogeneous", "has weights", "of bidegree", "arity"):
                seen[kind] += sum(kind in problem for problem in problems)
    assert min(seen.values()) > 0 and len(seen) == 5, seen


def test_model_refuses_a_gamma_word_without_tangent_letters():
    """Rule R holds on every model: a Gamma word with normal letters only
    breaks Gamma's row, and the constructor refuses it with the text the
    parser gives at $.tensors."""
    message = "gamma[0] has a word of bidegree (0, 2)"
    with pytest.raises(DegreeError) as err:
        _one_by_one_model(3, gamma={0: {(1, 1): 1}})
    assert str(err.value) == message
    doc = json.loads(serialize_model(_one_by_one_model(3)))
    one = {"num": 1, "den": 1, "inum": 0, "iden": 1}
    word = {"word": ["n0^", "n0^"], "terms": [{"basis": "1", "coeff": one}]}
    doc["tensors"] = {"gamma": [{"letter": "n0^", "value": [word]}]}
    with pytest.raises(ParseError) as err:
        parse_model(json.dumps(doc))
    assert (str(err.value), err.value.location) == (f"{message} (at $.tensors)", "$.tensors")


def test_retraction_line_reports_a_to_amb_that_drops_a_letter(monkeypatch, capsys):
    """The retraction check decides rho-dual o iota = id on the normal
    generators: with iota patched to drop the first normal letter, the
    lemmas line of the retraction fails on that letter alone."""
    g = fixture_corpus()["rank2.geometric"]
    assert retraction_residual(g) == []
    original = GeometricModel.to_amb

    def dropping(self, el):
        return SymElement(self.amb, {w: c for w, c in original(self, el).items() if self.a not in w})

    monkeypatch.setattr(GeometricModel, "to_amb", dropping)
    n0 = g.nor.letter(0)
    assert retraction_residual(g) == [(repr(n0), -n0)]
    fixture = Path(__file__).resolve().parents[1] / "fixtures" / "rank2.geometric.json"
    assert main(["lemmas", str(fixture)]) == 1
    lines = capsys.readouterr().out.splitlines()
    head = next(i for i, line in enumerate(lines) if "retraction" in line)
    assert lines[head].startswith("[FAIL] retraction: ")
    assert lines[head + 1] == "       residual @ [(1)*1|1]n0^: weight=1 word=n0^ coeff=(-1)*1|1"
    assert not lines[head + 2].startswith("       residual")


def test_lemma_checks_keep_no_rows(monkeypatch):
    """The three lemma checks keep nothing on the model: no attribute is
    added, no table of the model grows, and no model derivation gains an
    attribute or makes its square, since each slice row is built where it is
    read.  No check applies an operator, on a passing model or with doubled
    shape data."""

    def refuse(*args, **kwargs):
        raise AssertionError("a lemma check applied an operator")

    monkeypatch.setattr(DerivationD, "apply", refuse)
    g = small_random_model(14)
    attributes = set(vars(g))
    sizes = {name: len(v) for name, v in vars(g).items() if isinstance(v, dict)}
    derivations = {"_nabla_hat": g._nabla_hat, "_nabla_perp": g._nabla_perp, "_shape": g._shape, "_d1": g._d1}
    derivations.update({"_beta_tilde": g._beta_tilde, "_rtan": g._rtan})

    def kept():
        return {name: (set(vars(d)), d._square) for name, d in derivations.items()}

    before = kept()
    assert all(square is None for _, square in before.values())
    assert retraction_residual(g) == []
    assert commutator_lemma_residual(g) == []
    assert transport_lemma_residual(g) == []
    assert set(vars(g)) == attributes
    assert {name: len(vars(g)[name]) for name in sizes} == sizes
    assert kept() == before
    doubled = {i: v.scale(Scalar(2)) for i, v in g.shape.items()}
    with mutated(g, shape=doubled):
        assert len(transport_lemma_residual(g)) == 30
    assert kept() == before


def test_transport_check_decides_the_iterate_on_single_row_shape_mutations():
    """Doubling one Shape row at a time: the check is the oracle's operator
    part, an iterate entry never comes without an operator entry (P1
    nabla_bar = P1 D1 on the slice, so the iterate follows from the rows by
    induction on s), and some mutation shows both."""
    counts = []
    for seed in range(6):
        g = small_random_model(seed)
        for i in sorted(g.shape):
            one_row = dict(g.shape)
            one_row[i] = one_row[i].scale(Scalar(2))
            counts.append(transport_against_the_oracle(g, one_row))
    assert len(counts) == 12
    assert any(op and it for op, it in counts), counts


# -- the generator pass against the slice walk ----------------------------------------


def slice_commutator_lemma_residual(g):
    """The commutator check as a walk over the whole one-tangent-letter
    slice, with no generator pass."""
    D0a = g.ambient_d0()
    D0n = g.normal_d0()
    beta = g._beta_tilde
    a = g.a
    out = []
    for w, m, b in geometry._slice(g):
        left = geometry._rho_row(a, D0a._row(w, b))
        right = D0n._row(tuple(k - a for k in w), b) if m == 0 else geometry._rho_row(a, beta._row(w, b))
        residual = geometry._difference(g.nor, left, right)
        if residual is not None:
            out.append((repr(symtensor._normalized(g.amb, {w: g.base.basis_element(b)})), residual))
    return out


def slice_transport_lemma_residual(g):
    """The transport check as a walk over the whole one-tangent-letter
    slice, with no generator pass."""
    out = []
    for w, m, b in geometry._slice(g):
        right = g._nabla_perp if m == 0 else g._shape
        residual = geometry._difference(g.amb, g._d1_row(w, b), right._row(w, b))
        if residual is not None:
            label = f"operator @ {symtensor._normalized(g.amb, {w: g.base.basis_element(b)})!r}"
            out.append((label, residual))
    return out


def lemmas_against_the_slice_walk(g):
    """Check both lemma checks against the slice walk on g, with its own
    tensors, a bumped ambient beta, doubled Shape and each Shape row doubled
    alone; return the number of listed residuals of each input."""
    bumped = {i: v + g.nor.letter(0, g.base.one()).scale(Scalar(i + 1)) for i, v in g.beta.items()}
    shapes = [None, {i: v.scale(Scalar(2)) for i, v in g.shape.items()}]
    for i in sorted(g.shape):
        one_row = dict(g.shape)
        one_row[i] = one_row[i].scale(Scalar(2))
        shapes.append(one_row)
    counts = []
    for beta in (None, bumped):
        with mutated(g, beta=beta):
            got = commutator_lemma_residual(g)
            assert got == slice_commutator_lemma_residual(g)
        counts.append(len(got))
    for shape in shapes:
        with mutated(g, shape=shape):
            got = transport_lemma_residual(g)
            assert got == slice_transport_lemma_residual(g)
        counts.append(len(got))
    return counts


@given(
    base=st.sampled_from(range(3)),
    tangent=st.lists(st.integers(-1, 1), min_size=1, max_size=2),
    normal=st.lists(st.integers(-1, 1), min_size=1, max_size=2),
    cap=st.integers(1, 4),
    density=st.sampled_from([0.3, 0.6, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_generator_pass_matches_the_slice_walk_on_random_models(base, tangent, normal, cap, density, seed):
    """On random models over the sample bases, with mixed-degree letters and
    caps 1-4, the checks list what the slice walk lists (labels, values,
    order): with the model's tensors, a bumped beta, doubled Shape and every
    single-row Shape mutation."""
    g = random_geometric_model(
        Rng(seed), sample_bases()[base], tangent, normal, cap=cap, density=density, seed_modules=seed
    )
    counts = lemmas_against_the_slice_walk(g)
    assert counts[0] == 0 and counts[2] == 0  # the parser's bidegrees make both lemmas hold


def test_generator_pass_matches_the_slice_walk_on_fixed_models():
    """The same on the model with two odd normal letters."""
    two_odd = lemmas_against_the_slice_walk(_two_odd_normals_model())
    assert two_odd[0] == two_odd[2] == 0 and two_odd[1] > 0 and two_odd[3] > 0, two_odd


def test_passing_lemmas_build_one_row_per_generator_on_each_side(workloads, monkeypatch):
    """On gen_a2_b3_w5 at seed 0 a passing check builds exactly one row per
    generator grid element on each side of each lemma; with doubled Shape
    the transport check also walks the slice, two rows per element."""
    g = parse_model(workloads.generate_model_text("gen_a2_b3_w5.geometric", 0))
    calls = []
    row = DerivationD._row

    def counting(self, w, i):
        calls.append((self, w, i))
        return row(self, w, i)

    monkeypatch.setattr(DerivationD, "_row", counting)
    generators = list(geometry._generators(g))
    normal_generators = g.base.dim + g.b
    assert len(generators) == normal_generators + g.a
    assert commutator_lemma_residual(g) == []
    counts = Counter(id(der) for der, _, _ in calls)
    assert sorted(counts.values()) == sorted([len(generators), normal_generators, g.a])
    assert counts[id(g._beta_tilde)] == g.a
    calls.clear()
    assert transport_lemma_residual(g) == []
    assert Counter(id(der) for der, _, _ in calls) == {
        id(g._d1): len(generators), id(g._nabla_perp): normal_generators, id(g._shape): g.a
    }
    assert [(w, i) for der, w, i in calls if der is g._d1] == [(w, b) for w, _, b in generators]
    calls.clear()
    doubled = {i: v.scale(Scalar(2)) for i, v in g.shape.items()}
    with mutated(g, shape=doubled):
        assert transport_lemma_residual(g) != []
    # the generator pass up to the first differing row, then the whole slice
    d1_calls = [(w, i) for der, w, i in calls if der is g._d1]
    walked = [(w, b) for w, _, b in geometry._slice(g)]
    passed = len(d1_calls) - len(walked)
    assert len(calls) == 2 * len(d1_calls)
    assert 0 < passed <= len(generators)
    assert d1_calls == [(w, b) for w, _, b in generators[:passed]] + walked


def test_each_lemma_mutation_moves_one_side():
    """The code mutations the lemma tests use: a replaced beta table reaches
    the ambient d0 and not beta-tilde, a replaced Shape derivation is read
    by the transport check and leaves the cut D1 as built, and the model is
    as before on exit, where both checks pass again."""
    g = small_random_model(12)
    beta_tilde, d1, shape = g._beta_tilde, g._d1, g._shape
    bumped = {i: v + g.nor.letter(0, g.base.one()) for i, v in g.beta.items()}
    doubled = {i: v.scale(Scalar(2)) for i, v in g.shape.items()}
    want = g.ambient_d0().on_letters
    with mutated(g, beta=bumped):
        assert g.ambient_d0().on_letters != want
        assert g._beta_tilde is beta_tilde
        assert commutator_lemma_residual(g) != []
    with mutated(g, shape=doubled):
        assert g._shape is not shape and g._d1 is d1
        assert transport_lemma_residual(g) != []
    assert g._shape is shape and g.ambient_d0().on_letters == want
    assert commutator_lemma_residual(g) == transport_lemma_residual(g) == []


def test_rtan_is_one_derivation_built_once():
    """Rtan is one derivation built with the model: on each tangent letter
    its value is beta plus every curv_tan weight, beta-tilde is its
    weight-one part, and build_frakD reads both as built."""
    g = small_random_model(15)
    assert g.curv_tan
    rtan, beta_tilde = g._rtan, g._beta_tilde
    first = build_frakD(g)
    zero = g.amb.zero()
    for i in range(g.a):
        family = g.beta[i]
        for table in g.curv_tan.values():
            family = family + table.get(i, g.nor.zero())
        assert rtan.on_letters.get(i, zero) == g.to_amb(family)
        assert beta_tilde.on_letters.get(i, zero) == g.to_amb(g.beta[i])
    assert rtan.on_algebra == beta_tilde.on_algebra == {}
    assert build_frakD(g) == first
    assert g._rtan is rtan and g._beta_tilde is beta_tilde


def test_projections_match_public_constructor_and_refuse_other_algebras():
    """p1/project_bidegree, to_amb and rho_dual give what the public
    constructor gives, over the model's own algebras, also for an element of
    a compatible copy; an element of an algebra with the same letter names but
    another cap or base is refused instead of relabelled."""
    g = small_random_model(18)
    rng = Rng(18)

    def random_element(alg):
        data = {}
        for r in range(g.cap + 1):
            for w in alg.words_of_weight(r):
                if rng.random() < 0.5:
                    data[w] = rng.algebra_element(g.base)
        return SymElement(alg, data)

    def same_as_public(el, alg):
        assert el.algebra is alg
        assert list(el.data.items()) == list(SymElement(alg, el.data).data.items())
        return el

    amb_copy = SymAlgebra(g.base, list(zip(g.amb.letter_names, g.amb.letter_degrees)), cap=g.cap)
    for _ in range(4):
        x = random_element(g.amb)
        y = random_element(g.nor)
        for p in range(g.cap + 1):
            assert same_as_public(project_bidegree(g, x, p), g.amb) == SymElement(
                g.amb, {w: c for w, c in x.items() if g.tangent_count(w) == p}
            )
        assert same_as_public(g.to_amb(x), g.amb) == x
        assert same_as_public(g.to_amb(SymElement(amb_copy, x.data)), g.amb) == x
        moved = same_as_public(g.to_amb(y), g.amb)
        assert moved == SymElement(g.amb, {tuple(g.a + i for i in w): c for w, c in y.items()})
        assert same_as_public(g.rho_dual(moved), g.nor) == y
        assert same_as_public(g.rho_dual(x), g.nor) == SymElement(
            g.nor, {tuple(i - g.a for i in w): c for w, c in x.items() if g.tangent_count(w) == 0}
        )
    taller = SymAlgebra(g.base, list(zip(g.amb.letter_names, g.amb.letter_degrees)), cap=g.cap + 1)
    taller_nor = SymAlgebra(g.base, list(zip(g.nor.letter_names, g.nor.letter_degrees)), cap=g.cap + 1)
    other_base = SymAlgebra(kodaira_base(), list(zip(g.amb.letter_names, g.amb.letter_degrees)), cap=g.cap)
    for el in (taller.letter(g.a), other_base.scalar(other_base.base.one()), taller_nor.letter(0)):
        for op in (lambda el: p1(g, el), g.to_amb, g.rho_dual):
            with pytest.raises(BaseMismatch):
                op(el)


def test_constructor_refuses_tensors_over_the_wrong_letters_and_unknown_families():
    g = small_random_model(19)
    for fam in TENSOR_FAMILIES:
        other = g.nor if fam.values == "ambient" else g.amb
        table = {0: other.letter(0)}
        tensors = {fam.name: {2: table} if fam.weighted else table}
        with pytest.raises(BaseMismatch, match=f"over the {fam.values} letters"):
            GeometricModel(g.base, g.tangent, g.normal, cap=g.cap, **tensors)
        # an index outside the family's index set
        size = len(g.index_set(fam)[0])
        table = {size: g.values_algebra(fam).scalar(g.base.one())}
        tensors = {fam.name: {2: table} if fam.weighted else table}
        kind = "elements" if fam.index == "base" else "letters"
        with pytest.raises(KitError) as err:
            GeometricModel(g.base, g.tangent, g.normal, cap=g.cap, **tensors)
        assert str(err.value) == f"{fam.name} index {size} is out of range for {size} {fam.index} {kind}"
    with pytest.raises(TypeError, match="gama"):
        GeometricModel(g.base, g.tangent, g.normal, cap=g.cap, gama={})
    # dhat is a derivation of the base, so it kills the unit; zero there is no entry
    unit = g.base.unit
    GeometricModel(g.base, g.tangent, g.normal, cap=g.cap, dhat={unit: g.amb.zero()})
    with pytest.raises(KitError) as err:
        GeometricModel(g.base, g.tangent, g.normal, cap=g.cap, dhat={unit: g.amb.letter(0)})
    assert str(err.value) == f"dhat on the unit {g.base.names[unit]!r} is not zero"



def test_constructor_refuses_tensors_over_letters_of_other_degrees():
    """A tensor over letters with the ambient names but other degrees is
    refused, not re-read: n^ n^ is a nonzero word where n^ is even, and
    re-read where n^ is odd it would be stored as gamma = 0.  A tensor over
    the ambient letters at another cap is re-read, its words over the cap
    dropped."""
    base = trivial_base()
    tangent = FreeModule(base, [("t", 0)], name="T")
    normal = FreeModule(base, [("n", -1)], name="N")
    amb = GeometricModel(base, tangent, normal, cap=3).amb
    assert amb.letter_names == ("t^", "n^") and amb.letter_degrees == (0, 1)
    even = SymAlgebra(base, [("t^", 0), ("n^", 0)], cap=3)
    word = even.letter(1) * even.letter(1)
    assert not word.is_zero()
    with pytest.raises(BaseMismatch, match="not expressed over the ambient letters"):
        GeometricModel(base, tangent, normal, cap=3, gamma={0: word})
    taller = SymAlgebra(base, list(zip(amb.letter_names, amb.letter_degrees)), cap=4)
    t, n = taller.letter(0), taller.letter(1)
    g = GeometricModel(base, tangent, normal, cap=3, gamma={0: t * n + t * t * t * n})
    assert g.gamma[0].algebra is g.amb
    assert g.gamma[0] == g.amb.letter(0) * g.amb.letter(1)


# -- the bidegree invariant ---------------------------------------------------------


def test_nabla_hat_keeps_or_raises_the_tangent_count(workloads):
    """nabla_hat never lowers the tangent-letter count m of a word and raises
    it from m = 0: statically from the bidegree column of TENSOR_FAMILIES,
    and on every row of the (word, basis) grid of the shipped generic and
    rank2 models and of the generated benchmark models."""
    inputs = [fam for fam in TENSOR_FAMILIES if fam.values == "ambient"]
    assert {fam.name for fam in inputs} == {"dhat", "gamma", "shape", "conn_tan", "second_form"}
    for fam in inputs:
        replaced = 1 if fam.index == "tangent" else 0  # tangent letters of what the value replaces
        assert fam.bidegree[0] >= replaced and fam.bidegree[0] > 0, fam

    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    models = [parse_model((fixtures / f"{name}.geometric.json").read_text()) for name in ("generic", "rank2")]
    models += [parse_model(workloads.generate_model_text(name, 0)) for name in sorted(workloads.GENERATED)]
    outputs = []
    for g in models:
        count = 0
        for r in range(g.cap + 1):
            for w in g.amb.words_of_weight(r):
                m = g.tangent_count(w)
                for i in range(g.base.dim):
                    for v, _ in g._nabla_hat._row(w, i):
                        assert g.tangent_count(v) >= max(m, 1), (w, i, v)
                        count += 1
        outputs.append(count)
    assert outputs == [256, 313, 1153, 10355]
