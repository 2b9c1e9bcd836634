"""Homotopy Lie layer: decalage, Jacobi residuals, Der(A), morphisms."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from algebroidkit.algebroid import AlgebroidStructure, algebroid_jacobi_residual, anchor_morphism_residual
from algebroidkit.fixtures import (
    conjugation_oracle_structure,
    kodaira_base,
    lambda_eps,
    mixed_module,
    nontrivial_dga,
)
from algebroidkit.linfty import (
    AlgebraDerivation,
    LInftyAlgebra,
    ShiftedDerDGLA,
    _unshuffle_sum,
    _unshuffles,
    algebra_derivation_basis,
    canonicalize_key,
    d_A_derivation,
    decalage,
    decalage_inverse,
    sorted_tuples,
)
from algebroidkit.modules import FreeModule, ModuleElement
from algebroidkit.scalars import MINUS_ONE, ONE, Scalar
from algebroidkit.signs import sym_sign
from builders import Rng, cone_dgla, matrix_dgla, random_algebroid, sample_bases, trivial_base
from linfty_oracle import (
    LInftyBrackets,
    LInftyMorphism,
    anchor_morphism,
    canonical_partitions,
    linfty_jacobi_residual,
    morphism_residual,
    oracle_jacobi_residual,
    partition_permutation,
    per_permutation_unshuffle_sum,
)


def test_matrix_dgla_jacobi_skew():
    L = matrix_dgla()
    for n in range(1, 5):
        assert linfty_jacobi_residual(L, n) == {}


def test_cone_dgla_jacobi_skew():
    L = cone_dgla()
    for n in range(1, 5):
        assert linfty_jacobi_residual(L, n) == {}


def test_perturbed_matrix_dgla_fails_jacobi():
    L = matrix_dgla()
    base = L.carrier.base
    # plant a wrong entry: [E11, E12] += E21
    bad = ModuleElement(L.carrier, {2: base.one()})
    L.set_bracket(2, (0, 1), L.tables[2].get((0, 1)) + bad)
    assert linfty_jacobi_residual(L, 3) != {}


def test_decalage_preserves_jacobi_both_ways():
    for L in [matrix_dgla(), cone_dgla()]:
        L1 = decalage(L)
        for n in range(1, 5):
            assert linfty_jacobi_residual(L1, n) == {}
        back = decalage_inverse(L1)
        for n in range(1, 5):
            assert linfty_jacobi_residual(back, n) == {}


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
        dgla = ShiftedDerDGLA(base)
        assert len(dgla.basis()) >= 1
        for _, der in dgla.basis():
            assert der.leibniz_defects() == []
        for n in range(1, 5):
            assert dgla.jacobi_residual(n) == {}


def test_der_dgla_binary_bracket_sign_by_hand():
    """l_2(P, Q) = (-1)^{|P|} [P, Q] on Lambda[e] with P = e d/de (degree 0)
    and Q = d/de (degree -1): [P, Q] = -Q, and l_2 is graded symmetric in
    the shifted degrees -1 and -2, so both orders give -Q.  Rescaling l_2 by
    -1 keeps every Jacobi identity, so this pins the stated sign."""
    base = lambda_eps()
    e = base.index_of("e")
    P = AlgebraDerivation(base, {e: base.from_names({"e": ONE})})
    Q = AlgebraDerivation(base, {e: base.one()})
    dgla = ShiftedDerDGLA(base)
    assert dgla.bracket(2, [P, Q]) == dgla.bracket(2, [Q, P]) == -Q


def test_dA_commutator_with_itself_vanishes():
    base = nontrivial_dga()
    dA = d_A_derivation(base)
    assert dA.commutator(dA).is_zero()


def test_abelian_base_gives_abelian_dgla():
    # trivial products beyond the unit: every linear map with unit -> 0 is a
    # derivation and all commutators of degree-shifting maps vanish only if
    # compositions vanish; the 1-dimensional base is genuinely abelian
    basis = [der for _, der in ShiftedDerDGLA(trivial_base()).basis()]
    for P in basis:
        for Q in basis:
            assert P.commutator(Q).is_zero()


def identity_morphism(L: LInftyBrackets) -> LInftyMorphism:
    f = LInftyMorphism(L, L, L.carrier.zero())
    for i in range(L.carrier.rank):
        f.set_component(1, (i,), L.carrier.generator(i))
    return f


def test_identity_morphism_residual_zero():
    L = LInftyBrackets(decalage(cone_dgla()))
    f = identity_morphism(L)
    for n in range(1, 5):
        assert morphism_residual(f, L, L, n) == {}


def test_zero_morphism_residual_tracks_brackets():
    L = LInftyBrackets(decalage(matrix_dgla()))
    f = LInftyMorphism(L, L, L.carrier.zero())
    # with f = 0 the residual reduces to f(brackets) = 0 vs brackets of 0 = 0
    for n in range(1, 5):
        assert morphism_residual(f, L, L, n) == {}


def test_transported_structure_morphism_residual():
    """An invertible degree-0 change of frame transports brackets to zero residual."""
    rng = Rng(77)
    L = LInftyBrackets(decalage(matrix_dgla()))
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
    target = LInftyBrackets(target)
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
    assert linfty_jacobi_residual(L, 3) != {}
    assert linfty_jacobi_residual(decalage(L), 3) != {}


# ---------------------------------------------------------------------------
# the grouped unshuffle and partition sums against per-permutation sums
# ---------------------------------------------------------------------------


def oracle_morphism_residual(f, L, target, n):
    """Every unshuffle and every partition evaluated on its own, blocks
    beyond the target's top arity included."""
    carrier = L.carrier
    out = {}
    for key in sorted_tuples(carrier.rank, n):
        degs = [carrier.degrees[i] for i in key]
        gens = [carrier.generator(i) for i in key]
        lhs = per_permutation_unshuffle_sum(degs, gens, L.bracket, f.component, f.zero_value, True)
        rhs = f.zero_value
        for blocks in canonical_partitions(n):
            sign = sym_sign(partition_permutation(blocks), degs)
            values = [f.component(len(b), [gens[x - 1] for x in b]) for b in blocks]
            rhs = rhs + target.bracket(len(blocks), values).scale(Scalar(sign))
        residual = lhs + rhs.scale(MINUS_ONE)
        if not residual.is_zero():
            out[key] = residual
    return out


DEGREE_PATTERNS = [[0], [1], [0, 1], [1, -1], [0, 0, 1], [2, 1], [0, -1, 1]]


@given(
    degrees=st.sampled_from(DEGREE_PATTERNS),
    base_index=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_jacobi_residual_of_a_decalage_matches_the_per_permutation_sum(degrees, base_index, seed):
    """The symmetric decalage of random skew tables, as an algebroid with no
    anchors: its residual read off D^2 equals the per-permutation sum over
    the evaluated tables on every generator tuple, repeated generators
    included, at arities 1-4."""
    rng = Rng(seed)
    base = sample_bases()[base_index]
    carrier = FreeModule(base, [(f"g{i}", d) for i, d in enumerate(degrees)])
    L1 = decalage(random_skew_tables(rng, carrier))
    S = AlgebroidStructure(base, L1.carrier)
    S.brackets = L1.tables
    want = {n: oracle_jacobi_residual(LInftyBrackets(L1), n, True) for n in range(1, 5)}
    assert algebroid_jacobi_residual(S, range(1, 5)) == want


def bent_dgla_bracket(dgla):
    """The bracket of Der(A)[1] plus the composition at arity 2: no longer a
    DGLA, so its Jacobi sums are nonzero."""

    def bracket(n, args):
        value = dgla.bracket(n, args)
        return value + args[0].compose(args[1]) if n == 2 else value

    return bracket


def test_der_dgla_unshuffle_sum_matches_the_per_permutation_sum():
    checked = 0
    for base in sample_bases():
        dgla = ShiftedDerDGLA(base)
        shifted = [k - 1 for k, _ in dgla.basis()]
        basis = [der for _, der in dgla.basis()]
        for n in range(1, 4):
            assert dgla.jacobi_residual(n) == {}
            bent = bent_dgla_bracket(dgla)
            for key in sorted_tuples(len(basis), n):
                got = _unshuffle_sum(key, shifted, basis, bent, bent, dgla.zero())
                want = per_permutation_unshuffle_sum(
                    [shifted[i] for i in key], [basis[i] for i in key], bent, bent, dgla.zero(), True
                )
                assert got == want, (base.names, key)
                checked += not got.is_zero()
    assert checked > 0


@given(
    degrees=st.sampled_from([[0, 1], [0, -1], [1, -1, 0], [0, 0]]),
    base_index=st.integers(0, 2),
    derivation_anchors=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_anchor_morphism_residual_matches_the_per_permutation_sum(
    degrees, base_index, derivation_anchors, seed
):
    base = sample_bases()[base_index]
    carrier = mixed_module(base, degrees, seed=seed % 5)
    S = random_algebroid(Rng(seed), base, carrier, derivation_anchors=derivation_anchors)
    f, target = anchor_morphism(S)
    residuals = anchor_morphism_residual(S, [1, 2, 3])
    for n in range(1, 4):
        assert residuals[n] == morphism_residual(f, S, target, n) == oracle_morphism_residual(f, S, target, n)


def test_anchor_morphism_sign_on_a_genuine_structure():
    """A conjugation-built algebroid whose unshuffle side is nonzero, at
    n = 3 on (g0, g0, g1), where it is x -> -x*e: the target brackets must
    cancel it exactly, which pins the signs of Der(A)[1] (held as d_A alone)
    on a structure whose residual is known to vanish."""
    base = nontrivial_dga()
    carrier = mixed_module(base, [0, -1], name="L", seed=3)
    S, _, _ = conjugation_oracle_structure(Rng(3), carrier, cap=4)
    f, target = anchor_morphism(S)
    gens = [carrier.generator(i) for i in range(carrier.rank)]
    unshuffle_side = _unshuffle_sum((0, 0, 1), carrier.degrees, gens, S.bracket, f.component, f.zero_value)
    x, e = (base.from_names({name: ONE}) for name in ("x", "e"))
    assert unshuffle_side == AlgebraDerivation(base, {base.index_of("x"): -(x * e)})
    assert morphism_residual(f, S, target, 3) == {}


@given(degrees=st.sampled_from(DEGREE_PATTERNS), seed=st.integers(0, 2**16))
def test_linfty_morphism_residual_matches_the_per_permutation_sum(degrees, seed):
    """Random symmetric source and target tables (the target's top arity
    drawn, so that partitions into more blocks are skipped) and random
    degree-0 components.  The oracle evaluates the target bracket up to
    arity 4, where it vanishes above the drawn tables."""
    rng = Rng(seed)
    base = kodaira_base()
    carrier = FreeModule(base, [(f"g{i}", d) for i, d in enumerate(degrees)])
    source = LInftyBrackets(decalage(random_skew_tables(rng, carrier)))
    target = LInftyBrackets(decalage(random_skew_tables(rng, carrier, arity_cap=rng.randint(2, 4))))
    target.arity_cap = 4
    f = LInftyMorphism(source, target, target.carrier.zero())
    for m in range(1, 4):
        for key in sorted_tuples(carrier.rank, m):
            if canonicalize_key(key, source.carrier.degrees, True)[2]:
                continue
            want = sum(source.carrier.degrees[i] for i in key)
            value = rng.module_element(target.carrier, degree=want, zero_chance=0.5)
            if not value.is_zero():
                f.set_component(m, key, value)
    for n in range(1, 5):
        assert morphism_residual(f, source, target, n) == oracle_morphism_residual(f, source, target, n)


def test_outer_map_runs_once_per_argument_tuple_with_a_nonzero_count():
    """On key (0,0,0,0) every unshuffle in Sh(i, 4-i) gives the same argument
    tuple.  For an even generator their signs add up to C(4, i) > 0, so the
    outer map runs once per i: 4 times instead of 15.  For an odd one they
    add up to the Gaussian binomial at q = -1: 0 at i = 1 and 3, 2 at i = 2
    and 1 at i = 4, so it runs twice."""
    for degree, arities in ((0, [4, 3, 2, 1]), (1, [3, 1])):
        carrier = FreeModule(trivial_base(), [("g0", degree)])
        g = carrier.generator(0)
        calls = []

        def inner(k, args):
            return g

        def outer(k, args):
            calls.append(k)
            return g.scale(Scalar(k))

        total = _unshuffle_sum((0, 0, 0, 0), carrier.degrees, [g], inner, outer, carrier.zero())
        assert calls == arities
        want = per_permutation_unshuffle_sum([degree] * 4, [g] * 4, inner, outer, carrier.zero(), True)
        assert total == want


def test_canonical_unshuffles_are_the_two_block_partitions():
    """The unshuffles ``_unshuffles`` marks canonical are the representatives
    that ``canonical_partitions`` keeps of the splits into two blocks, each
    once and with the sign of its ``partition_permutation``: on a key of
    distinct generators 0..n-1, first and rest are the two blocks of
    positions."""
    for degrees in ((0, 1, 1, 0, 1), (1, 1, 1, 1, 1), (0, 2, -1, 0, 0)):
        for n in range(1, 6):
            got = {
                (first, rest): sign
                for first, rest, canonical, sign in _unshuffles(tuple(range(n)), degrees)
                if canonical
            }
            want = {
                tuple(tuple(x - 1 for x in b) for b in blocks): sym_sign(partition_permutation(blocks), degrees[:n])
                for blocks in canonical_partitions(n)
                if len(blocks) == 2
            }
            assert len(got) == 2 ** (n - 1) - 1
            assert got == want
