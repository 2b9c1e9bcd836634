"""Homotopy Lie layer: decalage, Jacobi residuals, Der(A), morphisms."""

from __future__ import annotations

from algebroidkit.fixtures import (
    Rng,
    cone_dgla,
    lambda_eps,
    matrix_dgla,
    nontrivial_dga,
    trivial_base,
)
from algebroidkit.linfty import (
    LInftyAlgebra,
    LInftyMorphism,
    algebra_derivation_basis,
    build_shifted_der_dgla,
    canonicalize_key,
    d_A_derivation,
    decalage,
    decalage_inverse,
    jacobi_residual,
    morphism_residual,
    sorted_tuples,
)
from algebroidkit.modules import FreeModule, ModuleElement
from algebroidkit.scalars import ONE, Scalar


def test_matrix_dgla_jacobi_skew():
    L = matrix_dgla()
    for n in range(1, 5):
        assert jacobi_residual(L, n) == {}


def test_cone_dgla_jacobi_skew():
    L = cone_dgla()
    for n in range(1, 5):
        assert jacobi_residual(L, n) == {}


def test_perturbed_matrix_dgla_fails_jacobi():
    L = matrix_dgla()
    base = L.carrier.base
    # plant a wrong entry: [E11, E12] += E21
    bad = ModuleElement(L.carrier, {2: base.one()})
    L.set_bracket(2, (0, 1), L.tables[2].get((0, 1)) + bad)
    assert jacobi_residual(L, 3) != {}


def test_decalage_preserves_jacobi_both_ways():
    for L in [matrix_dgla(), cone_dgla()]:
        L1 = decalage(L)
        for n in range(1, 5):
            assert jacobi_residual(L1, n) == {}
        back = decalage_inverse(L1)
        for n in range(1, 5):
            assert jacobi_residual(back, n) == {}


def random_skew_tables(rng, carrier, arity_cap=4):
    L = LInftyAlgebra(carrier, arity_cap=arity_cap)
    for n in range(2, arity_cap + 1):
        for key in sorted_tuples(carrier.rank, n):
            _, _, vanishes = canonicalize_key(key, carrier.degrees, symmetric=False)
            if vanishes:
                continue
            want = sum(carrier.degrees[i] for i in key) + 2 - n
            val = rng.module_element(carrier, degree=want, zero_chance=0.5)
            if not val.is_zero():
                L.set_bracket(n, key, val)
    return L


def test_decalage_round_trip_fifty_random_tables():
    rng = Rng(42)
    base = nontrivial_dga()
    for trial in range(50):
        rank = rng.randint(1, 3)
        degrees = [rng.randint(-2, 3) for _ in range(rank)]
        carrier = FreeModule(base, [(f"g{i}", degrees[i]) for i in range(rank)])
        L = random_skew_tables(rng, carrier)
        back = decalage_inverse(decalage(L))
        assert back.carrier.degrees == carrier.degrees
        for n in range(2, 5):
            v1 = L.tables.get(n, {})
            v2 = back.tables.get(n, {})
            assert set(v1) == set(v2)
            for key in v1:
                assert v1[key].items() == v2[key].items()


def test_decalage_binary_sign():
    # {v, w} = (-1)^{|v|} [v, w] on generators
    base = trivial_base()
    carrier = FreeModule(base, [("a", 1), ("b", 2)])
    L = LInftyAlgebra(carrier)
    val = ModuleElement(carrier, {0: base.one()})
    L.set_bracket(2, (0, 1), val)
    L1 = decalage(L)
    got = L1.tables[2].get((0, 1))
    assert got.items() == val.scale(Scalar(-1)).items()  # (-1)^{|a|} = -1


def test_derivation_space_of_lambda_eps():
    base = lambda_eps()
    # degree 0: e d/de; degree -1: d/de
    deg0 = algebra_derivation_basis(base, 0)
    degm1 = algebra_derivation_basis(base, -1)
    assert len(deg0) == 1 and len(degm1) == 1
    e = base.from_names({"e": ONE})
    assert deg0[0].apply(e).items() == e.scale(deg0[0].apply(e).items()[0][1]).items()
    assert not degm1[0].apply(e).is_zero()
    assert degm1[0].apply(base.one()).is_zero()
    for der in deg0 + degm1:
        assert der.leibniz_defects() == []


def test_der_dgla_jacobi():
    for base in [lambda_eps(), nontrivial_dga()]:
        dgla = build_shifted_der_dgla(base)
        assert len(dgla.basis) >= 1
        for der in dgla.basis:
            assert der.leibniz_defects() == []
        for n in range(1, 5):
            assert dgla.jacobi_residual(n) == {}


def test_dA_commutator_with_itself_vanishes():
    base = nontrivial_dga()
    dA = d_A_derivation(base)
    assert dA.commutator(dA).is_zero()


def test_abelian_base_gives_abelian_dgla():
    # trivial products beyond the unit: every linear map with unit -> 0 is a
    # derivation and all commutators of degree-shifting maps vanish only if
    # compositions vanish; the 1-dimensional base is genuinely abelian
    dgla = build_shifted_der_dgla(trivial_base())
    for P in dgla.basis:
        for Q in dgla.basis:
            assert P.commutator(Q).is_zero()


def identity_morphism(L: LInftyAlgebra) -> LInftyMorphism:
    f = LInftyMorphism(L, L, L.carrier.zero())
    for i in range(L.carrier.rank):
        f.set_component(1, (i,), L.carrier.generator(i))
    return f


def test_identity_morphism_residual_zero():
    L = decalage(cone_dgla())
    f = identity_morphism(L)
    for n in range(1, 5):
        assert morphism_residual(f, L, L, n) == {}


def test_zero_morphism_residual_tracks_brackets():
    L = decalage(matrix_dgla())
    f = LInftyMorphism(L, L, L.carrier.zero())
    # with f = 0 the residual reduces to f(brackets) = 0 vs brackets of 0 = 0
    for n in range(1, 5):
        assert morphism_residual(f, L, L, n) == {}


def test_transported_structure_morphism_residual():
    """An invertible degree-0 change of frame transports brackets to zero residual."""
    rng = Rng(77)
    base = trivial_base()
    L = decalage(matrix_dgla())
    carrier = L.carrier
    # target: same module, brackets transported through f1(g_i) = c_i g_i
    scalars = [Scalar(rng.randint(1, 3)) for _ in range(carrier.rank)]
    target = LInftyAlgebra(carrier, arity_cap=L.arity_cap, symmetric=True)
    table = L.tables.get(2)
    for key, val in table.items():
        ci, cj = scalars[key[0]], scalars[key[1]]
        transported = ModuleElement(
            carrier,
            {
                k: a.scale(scalars[k] * (ci * cj).inverse())
                for k, a in val.items()
            },
        )
        target.set_bracket(2, key, transported)
    f = LInftyMorphism(L, target, carrier.zero())
    for i in range(carrier.rank):
        f.set_component(1, (i,), carrier.generator(i).scale(scalars[i]))
    for n in range(1, 5):
        assert morphism_residual(f, L, target, n) == {}


def test_lambda_eps_derivation_commutator_table():
    """Hand 2x2 check: with H = e d/de and F = d/de, [H, F] = -F, [F, F] = 0."""
    base = lambda_eps()
    H = algebra_derivation_basis(base, 0)[0]
    F = algebra_derivation_basis(base, -1)[0]
    e = base.from_names({"e": ONE})
    # normalize: H(e) = c1 e, F(e) = c0 1; rescale both to unit coefficient
    cH = H.apply(e).items()[0][1]
    cF = F.apply(e).items()[0][1]
    H = H.scale(cH.inverse())
    F = F.scale(cF.inverse())
    assert H.apply(e) == e
    assert F.apply(e) == base.one()
    got = H.commutator(F)
    assert got == F.scale(Scalar(-1))
    # F is odd: [F, F] = 2 F o F = 0 since F o F kills both basis elements
    assert F.commutator(F).is_zero()
    assert H.commutator(H).is_zero()


def test_decalage_conjugates_jacobi_failure():
    """A broken skew structure stays broken (at the same arity) after the shift."""
    L = matrix_dgla()
    base = L.carrier.base
    bad = ModuleElement(L.carrier, {2: base.one()})
    L.set_bracket(2, (0, 1), L.tables[2].get((0, 1)) + bad)
    assert jacobi_residual(L, 3) != {}
    assert jacobi_residual(decalage(L), 3) != {}
