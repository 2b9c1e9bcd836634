"""Truncated symmetric algebra: products, evaluation, derivations, conjugation."""

from __future__ import annotations

import gc
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from algebroidkit.algebra import AlgebraElement, BaseAlgebra, _reduced_values, _summed, validate_base_algebra
from algebroidkit.algebroid import AlgebroidStructure, _letter_transpose, _word_transpose, d0_derivation
from algebroidkit.errors import BaseMismatch, CapError, DegreeError, KitError
from algebroidkit.geometry import _grid
from algebroidkit.fixtures import (
    exterior_base,
    kodaira_base,
    lambda_eps,
    mixed_module,
    nontrivial_dga,
)
from algebroidkit.modelio import parse_model
from algebroidkit.modules import FreeModule, ModuleElement, pair_dual
from algebroidkit.scalars import MINUS_ONE, ONE, Scalar, sign_scalar
from algebroidkit.signs import Permutation, _sort_word, enumerate_unshuffles, sym_sign
from algebroidkit.symtensor import (
    DerivationD,
    FilteredAutomorphism,
    SymAlgebra,
    SymElement,
    conjugate,
    evaluate,
    from_values,
    mc_residual,
    square,
    square_components,
    _sym_element,
    _word_constant,
)
from symtensor_oracle import (
    derivation_sum,
    exp_images,
    oracle_apply,
    oracle_check_degrees,
    oracle_conjugate,
    oracle_mc_residual,
    oracle_row,
    oracle_walk,
    oracle_weight_raising_derivation,
    oracle_square,
    reference_apply_inverse,
    reference_automorphism_apply,
    scalar_base_d,
    scalar_base_mul,
    scalar_letter_transpose,
    scalar_word_transpose,
)


def _eval_word(alg, module, word, args, degs):
    """(unit-coefficient word)(homogeneous args of degrees degs) through the
    recursive unshuffle product formula: the oracle for ``evaluate``."""
    base = alg.base
    if not word:
        return base.one()
    head = word[0]
    rest = word[1:]
    rest_degree = alg.word_degree(rest)
    acc = base.zero()
    prefix = 0
    for k in range(len(args)):
        # sign: alpha moving args[k] to the front, then |rest|*|v_{sigma(1)}|
        exponent = degs[k] * prefix + rest_degree * degs[k]
        paired = pair_dual(module, head, args[k])
        prefix += degs[k]
        if paired.is_zero():
            continue
        rest_val = _eval_word(alg, module, rest, args[:k] + args[k + 1 :], degs[:k] + degs[k + 1 :])
        if rest_val.is_zero():
            continue
        acc = acc + (paired * rest_val).scale(sign_scalar(exponent))
    return acc


def make_setup(seed=0, rank=2, cap=4):
    base = nontrivial_dga()
    module = standard_module(base, rank=rank, seed=seed)
    alg = SymAlgebra.over_module(module, cap=cap)
    return base, module, alg


def random_sym_element(rng, alg, max_weight=None):
    cap = alg.cap if max_weight is None else max_weight
    data = {}
    for r in range(cap + 1):
        for w in alg.words_of_weight(r):
            if rng.random() < 0.6:
                continue
            a = rng.algebra_element(alg.base)
            if not a.is_zero():
                data[w] = a
    from algebroidkit.symtensor import SymElement

    return SymElement(alg, data)


def test_unit_and_commutativity():
    base, module, alg = make_setup()
    rng = Rng(1)
    one = alg.scalar(base.one())
    for _ in range(15):
        x = random_sym_element(rng, alg)
        y = random_sym_element(rng, alg)
        assert one * x == x
        assert x * one == x
        # graded commutativity per homogeneous piece
        lhs = x * y
        rhs = alg.zero()
        for dx, xe in x.homogeneous_parts().items():
            for dy, ye in y.homogeneous_parts().items():
                rhs = rhs + (ye * xe).scale(sign_scalar(dx * dy))
        assert lhs == rhs


def test_associativity():
    base, module, alg = make_setup(cap=4)
    rng = Rng(2)
    for _ in range(10):
        x = random_sym_element(rng, alg, 2)
        y = random_sym_element(rng, alg, 1)
        z = random_sym_element(rng, alg, 1)
        assert (x * y) * z == x * (y * z)


def test_odd_letter_squares_to_zero():
    base = lambda_eps()
    module = FreeModule(base, [("g", -1)])  # dual letter has degree +1 (odd)
    alg = SymAlgebra.over_module(module, cap=4)
    lam = alg.letter(0)
    assert (lam * lam).is_zero()


def test_equal_elements_over_compatible_algebras_hash_alike():
    """== accepts any compatible algebra, so hash may not read which one."""
    base = nontrivial_dga()
    x, y = (SymAlgebra(base, [("x^", 0)], cap=3).letter(0) for _ in range(2))
    assert x.algebra is not y.algebra
    assert x == y and hash(x) == hash(y)
    assert len({x, y}) == 1


def test_cap_truncation_in_product():
    base, module, alg = make_setup(cap=2)
    lam0 = alg.letter(0)
    lam1 = alg.letter(1)
    prod = lam0 * lam1
    assert max(prod.weights(), default=0) <= 2
    assert (prod * lam0).is_zero()  # weight 3 discarded


def test_truncation_consistency_with_higher_cap():
    base = nontrivial_dga()
    module = standard_module(base, rank=2, seed=3)
    small = SymAlgebra.over_module(module, cap=3)
    big = SymAlgebra.over_module(module, cap=4)
    rng1, rng2 = Rng(7), Rng(7)
    x_small = random_sym_element(rng1, small, 2)
    x_big = random_sym_element(rng2, big, 2)
    y_small = random_sym_element(rng1, small, 2)
    y_big = random_sym_element(rng2, big, 2)
    lhs = (x_small * y_small).data
    rhs = {w: a for w, a in (x_big * y_big).data.items() if len(w) <= 3}
    assert lhs == rhs


# -- evaluation ----------------------------------------------------------------


def test_dual_letter_evaluates_to_unit():
    base, module, alg = make_setup()
    for i in range(module.rank):
        assert evaluate(alg.letter(i), [module.generator(i)], module) == base.one()


def test_evaluation_graded_symmetry():
    """Permuting the arguments of evaluate scales its value by their Koszul
    sign, for homogeneous nonzero eta of weight 3 on nonzero homogeneous
    arguments, multiples of the generators of each word of eta in shuffled
    order: every draw reaches the comparison, and enough values are nonzero
    on words with two odd letters, where the sort sign of the word shows."""
    base, module, alg = make_setup(seed=1, rank=3)  # letters of degrees 0, 1, -1
    rng = Rng(8)
    compared = signed = 0
    for _ in range(60):
        eta = _homogeneous_draw(rng, alg, 3)
        for w, _ in eta.items():
            word = list(w)
            rng.r.shuffle(word)
            args = [_nonzero_argument(rng, module, g) for g in word]
            degs = [v.degree() for v in args]
            base_val = evaluate(eta, args, module)
            for sigma_images in [(2, 1, 3), (1, 3, 2), (3, 2, 1), (2, 3, 1)]:
                sigma = Permutation(sigma_images)
                permuted = [args[p - 1] for p in sigma.images]
                sign = sym_sign(sigma, degs)
                assert evaluate(eta, permuted, module) == base_val.scale(Scalar(sign))
                compared += 1
            signed += not base_val.is_zero() and sum(alg.letter_degrees[i] & 1 for i in w) == 2
    assert compared >= 240 and signed >= 5, (compared, signed)


def test_evaluation_a_multilinearity_first_slot():
    """eta(a v1, v2) = (-1)^{|a||eta|} a eta(v1, v2) for homogeneous nonzero
    eta of weight 2, a nonzero base element a of each degree 0 and 1, and
    arguments with nonzero coefficients of degree 0 on the generators of
    each word of eta in shuffled order: every draw reaches the comparison,
    and enough values are nonzero with an odd a, where the Koszul sign
    shows."""
    base, module, alg = make_setup(seed=6)  # letters of degrees 1 and -2
    rng = Rng(9)
    compared = signed = 0
    for _ in range(30):
        eta = _homogeneous_draw(rng, alg, 2)
        for w, _ in eta.items():
            for degree in (0, 1):
                a = _nonzero_base_element(rng, base, degree)
                word = list(w)
                rng.r.shuffle(word)
                v1, v2 = (ModuleElement(module, {g: _nonzero_base_element(rng, base, 0)}) for g in word)
                lhs = evaluate(eta, [v1.a_mul(a), v2], module)
                rhs = (a * evaluate(eta, [v1, v2], module)).scale(sign_scalar(degree * eta.degree()))
                assert lhs == rhs
                compared += 1
                signed += degree and not lhs.is_zero()
    assert compared >= 60 and signed >= 5, (compared, signed)


def _homogeneous_draw(rng, alg, weight):
    """A nonzero homogeneous part of the weight-`weight` piece of a random
    element, its lowest degree; redrawn until there is one."""
    while True:
        parts = random_sym_element(rng, alg, weight).weight_part(weight).homogeneous_parts()
        if parts:
            return parts[min(parts)]


def _nonzero_base_element(rng, base, degree):
    """A nonzero base element of the given degree; redrawn until there is one."""
    while True:
        a = rng.algebra_element(base, degree)
        if not a.is_zero():
            return a


def _nonzero_argument(rng, module, g):
    """a . g_g for a nonzero homogeneous base element a of a random degree in
    0..1; redrawn until there is one."""
    while True:
        a = rng.algebra_element(module.base, rng.randint(0, 1))
        if not a.is_zero():
            return ModuleElement(module, {g: a})


def test_product_formula_consistency():
    """evaluate(x*y) equals the unshuffle-sum expansion of evaluate(x),
    evaluate(y) for homogeneous nonzero x, y on nonzero homogeneous
    arguments, multiples of the generators of a word of x*y in shuffled
    order: every draw reaches the comparison, most with nonzero values."""
    base, module, alg = make_setup(seed=10)
    rng = Rng(11)
    r, rp = 1, 2
    compared = nonzero = 0
    for _ in range(16):
        x = _homogeneous_draw(rng, alg, r)
        y = _homogeneous_draw(rng, alg, rp)
        y_deg = y.degree()
        words = [w for w, _ in (x * y).items()] or [(0,) * (r + rp)]
        word = list(rng.choice(words))
        rng.r.shuffle(word)
        args = [_nonzero_argument(rng, module, g) for g in word]
        degs = [v.degree() for v in args]
        lhs = evaluate(x * y, args, module)
        rhs = base.zero()
        for sigma in enumerate_unshuffles(r, rp):
            perm_args = [args[p - 1] for p in sigma.images]
            first, second = perm_args[:r], perm_args[r:]
            exponent = y_deg * sum(degs[sigma.images[k] - 1] for k in range(r))
            sign = sym_sign(sigma, degs)
            term = evaluate(x, first, module) * evaluate(y, second, module)
            rhs = rhs + term.scale(sign_scalar(exponent + (0 if sign == 1 else 1)))
        assert lhs == rhs
        compared += 1
        nonzero += not lhs.is_zero()
    assert compared >= 5 and nonzero >= 5, (compared, nonzero)


def test_representation_round_trip():
    base, module, alg = make_setup(seed=12)
    rng = Rng(13)
    for weight in range(5):
        el = random_sym_element(rng, alg, weight).weight_part(weight)
        rebuilt = from_values(
            alg, module, weight, lambda word, gens: evaluate(el, gens, module)
        )
        assert rebuilt == el


# module degree patterns with even, odd, negative and repeated letters
DEGREE_PATTERNS = [(0, 1, 0, -1), (1, 1, -1), (0, 0, 2), (-1, 0, 1, 2)]


def _assert_word_constant(alg, word, oracle):
    """kappa(w) is an int, and the oracle's value is that integer times the unit."""
    kappa = _word_constant(alg, word)
    assert type(kappa) is int, word
    assert oracle.items() == ((alg.base.unit, Scalar.rational(kappa)),), word


@pytest.mark.parametrize("degrees", DEGREE_PATTERNS)
def test_word_constant_matches_unshuffle_oracle(degrees):
    """kappa(w) in closed form, an integer, equals w on its own generators,
    summed over unshuffles."""
    base = nontrivial_dga()
    module = FreeModule(base, [(f"g{i}", d) for i, d in enumerate(degrees)])
    alg = SymAlgebra.over_module(module, cap=6)
    for weight in range(alg.cap + 1):
        for word in alg.words_of_weight(weight):
            gens = [module.generator(i) for i in word]
            degs = [module.degrees[i] for i in word]
            oracle = _eval_word(alg, module, word, gens, degs)
            _assert_word_constant(alg, word, oracle)


@given(degrees=st.lists(st.integers(-2, 3), min_size=1, max_size=4), cap=st.integers(0, 5))
def test_word_constant_matches_unshuffle_oracle_on_drawn_degrees(degrees, cap):
    """The same on drawn degree patterns and caps."""
    base = nontrivial_dga()
    module = FreeModule(base, [(f"g{i}", d) for i, d in enumerate(degrees)])
    alg = SymAlgebra.over_module(module, cap=cap)
    for weight in range(cap + 1):
        for word in alg.words_of_weight(weight):
            gens = [module.generator(i) for i in word]
            degs = [module.degrees[i] for i in word]
            oracle = _eval_word(alg, module, word, gens, degs)
            _assert_word_constant(alg, word, oracle)


def dense_sym_element(rng, alg):
    """Every word up to the cap, each with a nonzero random coefficient."""
    data = {}
    for r in range(alg.cap + 1):
        for w in alg.words_of_weight(r):
            data[w] = rng.algebra_element(alg.base, zero_chance=0.0)
    return SymElement(alg, data)


def _unshuffle_sum(el, args, module):
    """sum_w a_w * w(args) through the unshuffle oracle, multilinear over K:
    every argument is split into its homogeneous parts."""
    alg = el.algebra
    total = alg.base.zero()
    pieces = [list(v.homogeneous_parts().items()) for v in args]
    for chosen in product(*pieces):
        degs = [d for d, _ in chosen]
        vals = [v for _, v in chosen]
        for w, a in el.weight_part(len(args)).items():
            total = total + a * _eval_word(alg, module, w, vals, degs)
    return total


@pytest.mark.parametrize("degrees", [(0, 1, -1), (2, -1, 1)])
def test_evaluate_on_generators_matches_unshuffle_oracle(degrees):
    """Every ordered generator tuple up to weight 5: unsorted, repeated even,
    repeated odd and absent words all included."""
    base = nontrivial_dga()
    module = FreeModule(base, [(f"g{i}", d) for i, d in enumerate(degrees)])
    alg = SymAlgebra.over_module(module, cap=5)
    el = dense_sym_element(Rng(14), alg)
    gens = [module.generator(i) for i in range(module.rank)]
    for weight in range(alg.cap + 1):
        for idx in product(range(module.rank), repeat=weight):
            args = [gens[i] for i in idx]
            assert evaluate(el, args, module) == _unshuffle_sum(el, args, module), idx


def test_evaluate_general_arguments_agree_with_generators():
    """Non-unit coefficients and sums stay on the unshuffle path and agree."""
    base = nontrivial_dga()
    module = FreeModule(base, [("g0", 0), ("g1", 1), ("g2", -1)])
    alg = SymAlgebra.over_module(module, cap=3)
    el = dense_sym_element(Rng(15), alg)
    g = [module.generator(i) for i in range(module.rank)]
    e = base.basis_element(1)  # degree 1
    for idx in product(range(module.rank), repeat=3):
        args = [g[i] for i in idx]
        # a non-unit homogeneous coefficient in the first slot
        scaled = [g[idx[0]].a_mul(e)] + args[1:]
        assert evaluate(el, scaled, module) == _unshuffle_sum(el, scaled, module), idx
        doubled = [g[idx[0]].scale(Scalar(2))] + args[1:]
        assert evaluate(el, doubled, module) == evaluate(el, args, module).scale(Scalar(2))
        # a sum of two generators in the last slot
        for k in range(module.rank):
            summed = args[:2] + [g[idx[2]] + g[k]]
            split = evaluate(el, args, module) + evaluate(el, args[:2] + [g[k]], module)
            assert evaluate(el, summed, module) == split, (idx, k)


ORACLE_BASES = {
    "nontrivial_dga": nontrivial_dga(),
    "kodaira_base": kodaira_base(),
    "exterior_xyz": exterior_base([("x", 1), ("y", 1), ("z", 1)]),
}
# generator degrees: even, odd, negative and repeated
ORACLE_PATTERNS = [(0, 1, -1), (2, -1, 1), (0, 0, 1)]


# Gaussian rationals: unit, integer, fractional and imaginary values
SCALARS = st.sampled_from(
    [
        Scalar(1),
        Scalar(-1),
        Scalar(2),
        Scalar(Fraction(1, 3)),
        Scalar(Fraction(-3, 2)),
        Scalar(0, 1),
        Scalar(1, -1),
        Scalar(Fraction(-2, 3), Fraction(1, 2)),
    ]
)


def algebra_elements(base):
    """Nonzero, inhomogeneous in general: any basis elements, any degrees."""
    return st.dictionaries(
        st.integers(0, base.dim - 1), SCALARS, min_size=1, max_size=3
    ).map(lambda coeffs: AlgebraElement(base, coeffs))


def module_elements(module):
    return st.dictionaries(
        st.integers(0, module.rank - 1), algebra_elements(module.base), min_size=1, max_size=3
    ).map(lambda coeffs: ModuleElement(module, coeffs))


def sym_elements(alg, weight):
    """A nonzero weight part to evaluate, mixed with words of every weight."""
    words = [w for r in range(alg.cap + 1) for w in alg.words_of_weight(r)]
    coefficients = algebra_elements(alg.base)
    return st.tuples(
        st.dictionaries(st.sampled_from(alg.words_of_weight(weight)), coefficients, min_size=1, max_size=4),
        st.dictionaries(st.sampled_from(words), coefficients, max_size=4),
    ).map(lambda parts: SymElement(alg, {**parts[1], **parts[0]}))


@lru_cache(maxsize=None)
def oracle_case(base_name, degrees, weight):
    """(module, strategy of (element, arguments)) for one oracle setting."""
    base = ORACLE_BASES[base_name]
    module = FreeModule(base, [(f"g{i}", d) for i, d in enumerate(degrees)])
    alg = SymAlgebra.over_module(module, cap=3)
    args = st.tuples(*[module_elements(module)] * weight).map(list)
    return module, st.tuples(sym_elements(alg, weight), args)


@pytest.mark.parametrize("degrees", ORACLE_PATTERNS)
@pytest.mark.parametrize("base_name", sorted(ORACLE_BASES))
@pytest.mark.parametrize("weight", range(4))
@given(data=st.data())
def test_evaluate_matches_unshuffle_oracle_on_general_arguments(base_name, degrees, weight, data):
    """Inhomogeneous elements on inhomogeneous, non-unit arguments (sums,
    coefficients of every degree, repeated generators) agree with the
    unshuffle sum over the homogeneous parts of the arguments."""
    module, case = oracle_case(base_name, degrees, weight)
    el, args = data.draw(case)
    assert evaluate(el, args, module) == _unshuffle_sum(el, args, module)


def test_homogeneous_parts_split_by_total_degree():
    base, module, alg = make_setup(seed=20)
    el = random_sym_element(Rng(21), alg)
    parts = el.homogeneous_parts()
    total = alg.zero()
    for d, part in parts.items():
        assert part.degree() == d
        total = total + part
    assert total == el
    assert alg.zero().homogeneous_parts() == {}


def test_evaluate_rejects_generator_of_another_module():
    base, module, alg = make_setup()
    other = FreeModule(base, [(name, deg) for name, deg in zip(module.gen_names, module.degrees)])
    with pytest.raises(BaseMismatch):
        evaluate(alg.letter(0), [other.generator(0)], module)


def test_evaluate_rejects_other_module_where_the_weight_part_is_zero():
    """The guard runs before the early return for an empty weight part."""
    base, module, alg = make_setup()
    other = FreeModule(base, [(name, deg) for name, deg in zip(module.gen_names, module.degrees)])
    with pytest.raises(BaseMismatch):
        evaluate(alg.word((0, 1)), [other.generator(0)], module)


def test_evaluate_arity_above_cap():
    base, module, alg = make_setup(cap=2)
    with pytest.raises(CapError):
        evaluate(alg.scalar(base.one()), [module.generator(0)] * 3, module)


# -- derivations ---------------------------------------------------------------


def test_d0_squares_to_zero_and_matches_dA():
    base, module, alg = make_setup(seed=14)
    D0 = d0_derivation(alg, module)
    assert square_components(D0) == {}
    for i in range(base.dim):
        a = base.basis_element(i)
        assert D0.apply(alg.scalar(a)) == alg.scalar(a.d())


def test_zero_derivation():
    base, module, alg = make_setup()
    Z = DerivationD(alg, {}, {}, check=False)
    x = random_sym_element(Rng(15), alg)
    assert Z.apply(x).is_zero()
    with pytest.raises(TypeError):  # compared by its tables, so not hashable
        hash(Z)


def test_derivation_leibniz():
    base, module, alg = make_setup(seed=16)
    rng = Rng(17)
    # base part of the derivation must be Leibniz-compatible: use d_A plus
    # free letter values of the right degree
    D0 = d0_derivation(alg, module)
    on_letters = {}
    for i in range(alg.n_letters):
        val = random_sym_element(rng, alg, 3)
        part = val.homogeneous_parts().get(alg.letter_degrees[i] + 1, alg.zero())
        on_letters[i] = SymElement(alg, {w: a for w, a in part.items() if len(w) >= 1})
    D = derivation_sum(D0, DerivationD(alg, {}, on_letters))
    for _ in range(10):
        x = random_sym_element(rng, alg, 2)
        y = random_sym_element(rng, alg, 2)
        lhs = D.apply(x * y)
        rhs = D.apply(x) * y
        for dx, xe in x.homogeneous_parts().items():
            rhs = rhs + (xe * D.apply(y)).scale(sign_scalar(dx))
        assert lhs == rhs


def test_square_components_detects_perturbation():
    base, module, alg = make_setup(seed=18)
    D0 = d0_derivation(alg, module)
    assert square_components(D0) == {}
    # perturb with a random letter value of matching degree
    rng = Rng(19)
    from algebroidkit.symtensor import SymElement

    letter = 0
    target_degree = alg.letter_degrees[letter] + 1
    found = None
    for w in alg.words_of_weight(2):
        need = target_degree - alg.word_degree(w)
        cands = [i for i in range(base.dim) if base.degrees[i] == need]
        if cands:
            found = SymElement(alg, {w: base.basis_element(cands[0])})
            break
    assert found is not None
    pert = DerivationD(alg, {}, {letter: found})
    D = derivation_sum(D0, pert)
    # generic perturbations break D^2 = 0 (this specific one must: checked exactly)
    sq = square_components(D)
    assert sq != {} or D.apply(D.apply(alg.letter(letter))).is_zero()


# -- automorphisms ---------------------------------------------------------------


from algebroidkit.fixtures import random_unipotent, random_weight_raising_derivation
from builders import Rng, random_ce_derivation, sample_bases, standard_module


def test_identity_automorphism():
    """exp of the zero derivation: both series stop at their first term."""
    base, module, alg = make_setup()
    Phi = FilteredAutomorphism(DerivationD(alg, {}, {}, degree=0))
    D0 = d0_derivation(alg, module)
    conjugated = conjugate(Phi, D0)
    assert conjugated == D0
    assert mc_residual(D0, conjugated) == {}
    x = random_sym_element(Rng(19), alg)
    assert Phi.apply(x) == x
    assert Phi.apply_inverse(x) == x


def automorphism_problems(Phi):
    """Multiplicativity on base basis pairs and invertibility on letters."""
    problems = []
    alg = Phi.algebra
    base = alg.base
    for i in range(base.dim):
        for j in range(base.dim):
            lhs = Phi.apply(alg.scalar(base.product_basis(i, j)))
            rhs = Phi.apply(alg.scalar(base.basis_element(i))) * Phi.apply(alg.scalar(base.basis_element(j)))
            if lhs != rhs:
                problems.append(f"multiplicativity fails on ({base.names[i]}, {base.names[j]})")
    for i in range(alg.n_letters):
        x = alg.letter(i)
        if Phi.apply(Phi.apply_inverse(x)) != x:
            problems.append(f"inverse fails on letter {alg.letter_names[i]}")
    return problems


def test_unipotent_validates_and_inverts():
    base, module, alg = make_setup(seed=20)
    rng = Rng(23)
    Phi = random_unipotent(rng, alg)
    assert automorphism_problems(Phi) == []
    x = random_sym_element(rng, alg)
    assert Phi.apply_inverse(Phi.apply(x)) == x
    assert Phi.apply(Phi.apply_inverse(x)) == x


def test_conjugation_preserves_square_zero_and_gr():
    base, module, alg = make_setup(seed=24)
    D0 = d0_derivation(alg, module)
    rng = Rng(25)
    for _ in range(5):
        Phi = random_unipotent(rng, alg)
        D = conjugate(Phi, D0)
        assert square_components(D) == {}
        assert D.weight_component(0) == D0  # gr-invariance: weight part is D0
        assert mc_residual(D0, D) == {}


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def test_the_mc_draw_matches_the_draw_that_solved_every_degree(workloads):
    """phi of ``mc`` (``random_unipotent``) solves only the degrees of Der(A)
    some word reads, yet draws what the draw that solved every degree drew,
    with the same rng draws after it: seeds 0-20 on the carrier algebra of
    every shipped fixture and generated model, at its stored cap."""
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.json"))]
    texts += [workloads.generate_model_text(name, 0) for name in sorted(workloads.GENERATED)]
    assert len(texts) == 10
    solved = 0
    for text in texts:
        model = parse_model(text)
        if isinstance(model, AlgebroidStructure):
            carrier, cap = model.carrier, model.bracket_cap
        else:
            carrier, cap = model.normal, model.cap
        alg = SymAlgebra.over_module(carrier, cap=cap)
        for seed in range(21):
            rng, oracle_rng = Rng(seed), Rng(seed)
            phi = random_unipotent(rng, alg).phi
            want = oracle_weight_raising_derivation(oracle_rng, alg, 0.25)
            assert (phi.on_algebra, phi.on_letters) == (want.on_algebra, want.on_letters)
            assert rng.random() == oracle_rng.random()
            solved += any(phi.on_algebra.values())
    assert solved


def test_conjugate_of_zero_is_zero():
    base, module, alg = make_setup(seed=1)
    Phi = random_unipotent(Rng(1), alg)
    assert Phi.phi.on_algebra or Phi.phi.on_letters
    Z = DerivationD(alg, {}, {}, check=False)
    assert conjugate(Phi, Z) == Z


def test_apply_derivation_truncation_consistency():
    """Cap-W results equal cap-(W+1) results restricted to weights <= W."""
    base = nontrivial_dga()
    module = standard_module(base, rank=2, seed=30)
    small = SymAlgebra.over_module(module, cap=3)
    big = SymAlgebra.over_module(module, cap=4)
    from algebroidkit.symtensor import SymElement

    def build(alg, rng):
        D0 = d0_derivation(alg, module)
        on_letters = {}
        for i in range(alg.n_letters):
            parts = {}
            for r in range(2, alg.cap + 1):
                for w in alg.words_of_weight(r):
                    if rng.random() < 0.5:
                        continue
                    need = alg.letter_degrees[i] + 1 - alg.word_degree(w)
                    cands = [b for b in range(base.dim) if base.degrees[b] == need]
                    if cands:
                        parts[w] = base.basis_element(cands[0]).scale(rng.scalar())
            on_letters[i] = SymElement(alg, parts)
        return derivation_sum(D0, DerivationD(alg, {}, on_letters))

    D_small = build(small, Rng(31))
    D_big = build(big, Rng(31))
    rng = Rng(32)
    for _ in range(10):
        data = {}
        for r in range(4):
            for w in small.words_of_weight(r):
                if rng.random() < 0.5:
                    continue
                data[w] = rng.algebra_element(base)
    el_small = SymElement(small, data)
    el_big = SymElement(big, data)
    got_small = D_small.apply(el_small)
    got_big = D_big.apply(el_big)
    assert got_small.data == {w: c for w, c in got_big.items() if len(w) <= 3}


def test_mc_single_planted_term_is_commutator():
    """A square-zero planted term: the deficiency is exactly [phi, D0]."""
    base = lambda_eps()
    module = FreeModule(base, [("g0", -2), ("g1", -1)])
    e = base.from_names({"e": ONE})
    module.set_differential({1: ModuleElement(module, {1: e})})
    alg = SymAlgebra.over_module(module, cap=4)
    from algebroidkit.symtensor import DerivationD, SymElement

    phi = DerivationD(
        alg, {}, {0: SymElement(alg, {(1, 1): base.one()})}, degree=0, check=False
    )
    # phi^2 = 0: the value word only contains the letter phi kills
    assert phi.apply(phi.apply(alg.letter(0))).is_zero()
    Phi = FilteredAutomorphism(phi)
    D0 = d0_derivation(alg, module)
    conjugated = conjugate(Phi, D0)
    omega = derivation_sum(conjugated, D0, MINUS_ONE)
    # commutator [phi, D0] on generators
    def comm_on(x):
        return phi.apply(D0.apply(x)) - D0.apply(phi.apply(x))

    for i in range(base.dim):
        x = alg.scalar(base.basis_element(i))
        got = omega.on_algebra.get(i, alg.zero())
        assert got == comm_on(x)
    for i in range(alg.n_letters):
        got = omega.on_letters.get(i, alg.zero())
        assert got == comm_on(alg.letter(i))
    assert mc_residual(D0, conjugated) == {}


def test_mc_residual_matches_the_three_term_oracle():
    """C(Cx) - D0(D0x) equals D0(omega x) + omega(D0 x) + omega(omega x) for
    omega = C - D0, on every generator: on D0 with D0^2 != 0 (free random
    word data), where both sides are nonzero, with C = Phi D0 Phi^{-1} and
    with an unrelated C, over each sample base and odd letters."""
    nonzero = 0
    for seed, base in enumerate(sample_bases()):
        for degrees in ([0, 1], [1, -1, 0]):
            rng = Rng(60 + seed)
            module = mixed_module(base, degrees, seed=seed)
            D0 = random_ce_derivation(rng, base, module, cap=3)
            alg = D0.algebra
            assert square_components(D0) != {}
            others = (conjugate(random_unipotent(rng, alg), D0), random_ce_derivation(rng, base, module, cap=3))
            for C in others:
                got = mc_residual(D0, C)
                assert got == oracle_mc_residual(D0, C), (base.names, degrees)
                nonzero += bool(got)
    assert nonzero == 12, nonzero


# -- the product and apply kernels against the three-product oracles ---------------


def _reference_merge(alg, w1, w2):
    """Merge two sorted words: (word, sign exponent, vanished)."""
    out = []
    exponent = 0
    i = j = 0
    deg = alg.letter_degrees
    tail = sum(deg[x] for x in w1)
    while i < len(w1) and j < len(w2):
        if w1[i] <= w2[j]:
            tail -= deg[w1[i]]
            out.append(w1[i])
            i += 1
        else:
            exponent += deg[w2[j]] * tail
            out.append(w2[j])
            j += 1
    out.extend(w1[i:])
    out.extend(w2[j:])
    word = tuple(out)
    if any(a == b and deg[a] % 2 for a, b in zip(word, word[1:])):
        return word, 0, True
    return word, exponent, False


def homogeneous_terms(el):
    """(word, total degree, homogeneous coefficient) triples of el."""
    return [(w, d, a) for d, part in el.homogeneous_parts().items() for w, a in part.items()]


def reference_mul(x, y):
    """The product split into homogeneous terms, one AlgebraElement product each."""
    alg = x.algebra
    acc = {}
    for w1, d1, a1 in homogeneous_terms(x):
        for w2, d2, a2 in homogeneous_terms(y):
            if len(w1) + len(w2) > alg.cap:
                continue
            sign = (d2 - alg.word_degree(w2)) * alg.word_degree(w1)
            merged, merge_sign, vanished = _reference_merge(alg, w1, w2)
            if vanished:
                continue
            total = (a1 * a2).scale(sign_scalar(sign + merge_sign))
            acc[merged] = acc.get(merged, alg.base.zero()) + total
    return SymElement(alg, acc)


def reference_apply(D, element):
    """Leibniz rule as three products per substituted letter: prefix * D(x) * rest."""
    alg = D.algebra
    base = alg.base
    acc = alg.zero()
    for w, a in element.items():
        coeff = alg.zero()
        for i, c in a.items():
            val = D.on_algebra.get(i)
            if val is not None:
                coeff = coeff + val.scale(c)
        acc = acc + reference_mul(coeff, SymElement(alg, {w: base.one()}))
        for pos in range(len(w)):
            val = D.on_letters.get(w[pos])
            if val is None:
                continue
            prefix_word, rest_word = w[:pos], w[pos + 1 :]
            for d, ha in a.homogeneous_parts().items():
                exponent = D.degree * (d + alg.word_degree(prefix_word))
                term = SymElement(alg, {prefix_word: ha.scale(sign_scalar(exponent))})
                term = reference_mul(reference_mul(term, val), SymElement(alg, {rest_word: base.one()}))
                acc = acc + term
    return acc


def sparse_sym_element(rng, alg, density, min_weight=0):
    """Random words, each with an inhomogeneous Gaussian-rational coefficient."""
    data = {}
    for r in range(min_weight, alg.cap + 1):
        for w in alg.words_of_weight(r):
            if rng.random() < density:
                data[w] = rng.algebra_element(alg.base, zero_chance=0.4)
    return SymElement(alg, data)


def random_derivation(rng, alg, degree):
    """Random values on every base element but the unit, which a derivation
    kills (``DerivationD`` refuses a value there), and on every letter;
    degrees are not checked, the Leibniz formula is linear in them.  A value
    is drawn for the unit too and dropped, so the draws after it stay as
    they were."""
    base = alg.base
    on_algebra = {i: sparse_sym_element(rng, alg, 0.3) for i in range(base.dim)}
    del on_algebra[base.unit]
    on_letters = {i: sparse_sym_element(rng, alg, 0.3) for i in range(alg.n_letters)}
    return DerivationD(alg, on_algebra, on_letters, degree=degree, check=False)


def gaussian_product_base():
    """1, t, u, ut of degrees 0, 1, 0, 1 with u t = (1/2 - i) ut: a structure
    constant other than +-1, which no sample base has."""
    return BaseAlgebra([("1", 0), ("t", 1), ("u", 0), ("ut", 1)], 0, {(2, 1): {3: Scalar(Fraction(1, 2), -1)}})


KERNEL_BASES = {
    "nontrivial_dga": nontrivial_dga,
    "kodaira_base": kodaira_base,
    "gaussian_product_base": gaussian_product_base,
}


@pytest.mark.parametrize("base_name", sorted(KERNEL_BASES))
@pytest.mark.parametrize("degrees", DEGREE_PATTERNS)
def test_product_matches_homogeneous_term_oracle(base_name, degrees):
    base = KERNEL_BASES[base_name]()
    module = FreeModule(base, [(f"g{i}", d) for i, d in enumerate(degrees)])
    alg = SymAlgebra.over_module(module, cap=4)
    rng = Rng(40 + len(degrees))
    for _ in range(6):
        x = sparse_sym_element(rng, alg, 0.35)
        y = sparse_sym_element(rng, alg, 0.35)
        assert x * y == reference_mul(x, y)


# the sample bases, and one whose product needs a structure-constant multiplication
ROW_KERNEL_BASES = sample_bases() + [gaussian_product_base()]


@st.composite
def drawn_algebras(draw, max_cap, bases=ROW_KERNEL_BASES):
    """A SymAlgebra over one of bases, with up to three letters of drawn
    degrees (odd, even and repeated ones) and a cap in 0..max_cap."""
    base = draw(st.sampled_from(bases))
    degrees = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=3))
    cap = draw(st.integers(0, max_cap))
    return SymAlgebra(base, [(f"x{i}", d) for i, d in enumerate(degrees)], cap)


def drawn_elements(alg):
    """Words of every weight up to the cap, with inhomogeneous coefficients."""
    words = [w for r in range(alg.cap + 1) for w in alg.words_of_weight(r)]
    return st.dictionaries(st.sampled_from(words), algebra_elements(alg.base), max_size=5).map(
        lambda data: SymElement(alg, data)
    )


@given(data=st.data())
def test_product_skips_pairs_over_the_cap_on_drawn_algebras(data):
    """The right factor always carries the words of weight cap, so every
    nonempty left word meets words that overflow cap - |w1|."""
    alg = data.draw(drawn_algebras(5))
    x = data.draw(drawn_elements(alg))
    y = data.draw(drawn_elements(alg))
    top = SymElement(alg, {w: alg.base.one() for w in alg.words_of_weight(alg.cap)})
    assert x * y == reference_mul(x, y)
    assert x * (y + top) == reference_mul(x, y + top)
    assert (y + top) * x == reference_mul(y + top, x)


@pytest.mark.parametrize("derivation_degree", [-1, 0, 1])
@pytest.mark.parametrize("base_name", sorted(KERNEL_BASES))
@pytest.mark.parametrize("degrees", DEGREE_PATTERNS)
def test_apply_matches_three_product_oracle(base_name, degrees, derivation_degree):
    """Runs of equal even letters, odd prefixes and odd coefficients all occur."""
    base = KERNEL_BASES[base_name]()
    module = FreeModule(base, [(f"g{i}", d) for i, d in enumerate(degrees)])
    alg = SymAlgebra.over_module(module, cap=4)
    rng = Rng(50 + 7 * len(degrees) + derivation_degree)
    for _ in range(3):
        D = random_derivation(rng, alg, derivation_degree)
        x = sparse_sym_element(rng, alg, 0.5)
        assert D.apply(x) == reference_apply(D, x)


# -- exp(phi) against the multiplicative oracle ---------------------------------------


# all a DerivationD keeps: its values, their packed length-sorted terms and
# its square; no table per grid element and no memo of its walks
DERIVATION_ATTRIBUTES = {"algebra", "degree", "on_algebra", "on_letters", "_terms", "_square"}


@pytest.mark.parametrize("base_name", sorted(KERNEL_BASES))
@pytest.mark.parametrize("degrees", DEGREE_PATTERNS)
def test_exp_series_matches_the_multiplicative_oracle(base_name, degrees):
    """Inhomogeneous elements with non-unit Gaussian-rational coefficients,
    several per automorphism, so later elements read the sorted words phi's
    walk met for earlier ones; Phi keeps nothing but phi, and phi no table
    per grid element."""
    base = KERNEL_BASES[base_name]()
    module = FreeModule(base, [(f"g{i}", d) for i, d in enumerate(degrees)])
    alg = SymAlgebra.over_module(module, cap=4)
    rng = Rng(60 + len(degrees))
    for _ in range(2):
        Phi = random_unipotent(rng, alg)
        images = exp_images(Phi.phi)
        for _ in range(3):
            x = sparse_sym_element(rng, alg, 0.4)
            assert Phi.apply(x) == reference_automorphism_apply(images, x)
            assert Phi.apply_inverse(x) == reference_apply_inverse(images, x)
        assert vars(Phi) == {"algebra": alg, "phi": Phi.phi}
        assert set(vars(Phi.phi)) == DERIVATION_ATTRIBUTES


@given(data=st.data())
def test_exp_series_and_conjugate_match_the_oracle_on_drawn_algebras(data):
    """Phi and Phi^{-1} as series against the letter-by-letter product of the
    exp(phi) images and its Neumann series, on every generator and on drawn
    elements, with odd letters, caps 0..4 and a dense phi among them, so
    that third and fourth powers occur; and Phi D Phi^{-1} against the same
    oracle on every generator."""
    alg = data.draw(drawn_algebras(4))
    rng = Rng(data.draw(st.integers(0, 2**16)))
    Phi = FilteredAutomorphism(random_weight_raising_derivation(rng, alg, data.draw(st.sampled_from([0.25, 0.7]))))
    images = exp_images(Phi.phi)
    D = random_derivation(rng, alg, 1)
    C = conjugate(Phi, D)
    tables = (C.on_algebra, C.on_letters)
    for slot, i, _, x in alg.generators():
        assert Phi.apply(x) == reference_automorphism_apply(images, x)
        assert Phi.apply_inverse(x) == reference_apply_inverse(images, x)
        want = reference_automorphism_apply(images, D.apply(reference_apply_inverse(images, x)))
        assert tables[slot].get(i, alg.zero()) == want
    for _ in range(2):
        x = data.draw(drawn_elements(alg))
        assert Phi.apply(x) == reference_automorphism_apply(images, x)
        assert Phi.apply_inverse(x) == reference_apply_inverse(images, x)
        assert Phi.apply(Phi.apply_inverse(x)) == x


# -- the triple row kernel against the Scalar-by-Scalar oracle -------------------


@st.composite
def drawn_derivations(draw, max_cap=5):
    """A derivation of degree 0 or 1 over a drawn algebra (a sample base or
    ``gaussian_product_base``, cap 0..max_cap, odd and even letters), its values
    drawn words with Gaussian coefficients over mixed denominators; degrees
    are not checked, the Leibniz formula is linear in them.  No value is
    drawn on the unit, which ``DerivationD`` refuses
    (``test_a_derivation_refuses_a_value_on_the_unit``); at cap 0 the letter
    values are drawn, and every letter is zero."""
    alg = draw(drawn_algebras(max_cap))
    values = drawn_elements(alg)
    base = alg.base
    non_unit = st.sampled_from([i for i in range(base.dim) if i != base.unit])
    on_algebra = draw(st.dictionaries(non_unit, values, max_size=base.dim - 1))
    on_letters = draw(st.dictionaries(st.integers(0, alg.n_letters - 1), values, max_size=alg.n_letters))
    degree = draw(st.sampled_from([0, 1]))
    return DerivationD(alg, on_algebra, on_letters, degree=degree, check=False)


def _degree_refusal(check, D):
    """The text of the DegreeError that check(D) raises, or None."""
    try:
        check(D)
    except DegreeError as exc:
        return str(exc)
    return None


@given(data=st.data())
def test_check_degrees_matches_the_generator_order_oracle(data):
    """``DerivationD._check_degrees`` decides each value in one walk and
    refuses with the text of the former generator-order loop
    (``oracle_check_degrees``), or passes where it passes: on drawn
    derivations with values of any degrees, with every value cut to its
    right degree, and so cut with one value of another degree or one
    inhomogeneous value put at a drawn generator."""
    D = data.draw(drawn_derivations())
    alg = D.algebra
    mode = data.draw(st.sampled_from(["drawn", "right", "wrong", "inhomogeneous"]))
    tables = (dict(D.on_algebra), dict(D.on_letters))
    degrees = (alg.base.degrees, alg.letter_degrees)
    if mode != "drawn":
        for slot, i, _, _ in alg.generators():
            part = tables[slot].pop(i, alg.zero()).homogeneous_parts().get(degrees[slot][i] + D.degree)
            if part is not None:
                tables[slot][i] = part
    if mode in ("wrong", "inhomogeneous"):
        gens = [(slot, i) for slot, i, _, _ in alg.generators() if slot or i != alg.base.unit]
        slot, i = data.draw(st.sampled_from(gens))
        want = degrees[slot][i] + D.degree
        monomials = [m for *_, m in alg.generators() if not m.is_zero()]
        if mode == "wrong":
            values = [m for m in monomials if m.degree() != want]
        else:
            values = [m + n for m in monomials for n in monomials if m.degree() < n.degree()]
        assume(values)
        tables[slot][i] = data.draw(st.sampled_from(values))
    E = DerivationD(alg, *tables, degree=D.degree, check=False)
    got = _degree_refusal(DerivationD._check_degrees, E)
    if alg.cap == 0 and E.on_letters:
        # every letter is zero at cap 0: the former loop read no degree off
        # its generator element, where the check reads the letter's
        with pytest.raises(TypeError):
            oracle_check_degrees(E)
    else:
        assert got == _degree_refusal(oracle_check_degrees, E)
    if mode != "drawn":
        assert (got is None) == (mode == "right"), got


def test_gaussian_product_base_is_a_valid_dga():
    assert validate_base_algebra(gaussian_product_base()) == []


@given(data=st.data())
def test_rows_apply_square_and_conjugate_match_the_scalar_oracle(data):
    """Every row, ``apply`` on drawn elements, the square and Phi D Phi^{-1}
    equal the kernel that forms and reduces one Scalar per product and sum."""
    D = data.draw(drawn_derivations())
    alg = D.algebra
    for w, i in _grid(alg):
        assert D._row(w, i) == oracle_row(D, w, i), (w, i)
    for _ in range(2):
        x = data.draw(drawn_elements(alg))
        assert D.apply(x) == oracle_apply(D, x)
    assert square(D) == oracle_square(D)
    Phi = FilteredAutomorphism(random_weight_raising_derivation(Rng(data.draw(st.integers(0, 2**16))), alg, 0.7))
    assert conjugate(Phi, D) == oracle_conjugate(Phi, D)


@settings(max_examples=60)
@given(data=st.data())
def test_packed_walk_matches_the_sorting_oracle_walk(data):
    """``_walk`` over packed words gives the element of the triples that
    ``oracle_walk`` sums, concatenating and sorting every substitution: on every grid element and on
    drawn elements, alone and concatenated (so a word repeats among the
    terms), for derivations of degree 0 and 1 over odd and even letters,
    caps 0..6, with coefficients on odd base elements among them."""
    D = data.draw(drawn_derivations(6))
    alg = D.algebra

    def finished(table):
        return _sym_element(alg, _reduced_values(alg.base, table))

    for w, i in _grid(alg):
        terms = ((w, alg.base.basis_element(i)),)
        assert D._walk(terms) == finished(oracle_walk(D, terms)), (w, i)
    x = data.draw(drawn_elements(alg))
    y = data.draw(drawn_elements(alg))
    for terms in (x.coeffs, x.coeffs + y.coeffs):
        assert D._walk(terms) == finished(oracle_walk(D, terms))


@st.composite
def packed_substitutions(draw):
    """(algebra, word w, position in w, word v): up to five letters of drawn
    degrees, cap 0..12, w and v sorted non-vanishing words such that v in
    place of one letter of w fits the cap (v before w may pass it by one
    letter, which the spare bit of each exponent field holds); their letters
    may repeat an odd letter between them."""
    degrees = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=5))
    cap = draw(st.integers(0, 12))
    alg = SymAlgebra(nontrivial_dga(), [(f"x{i}", d) for i, d in enumerate(degrees)], cap)
    letters = st.integers(0, len(degrees) - 1)

    def word(max_size):
        merged = _sort_word(alg.letter_degrees, draw(st.lists(letters, max_size=max_size)))
        assume(merged is not None)
        return merged[0]

    w = word(cap)
    v = word(cap - max(len(w) - 1, 0))
    pos = draw(st.integers(0, len(w) - 1)) if w else None
    return alg, w, pos, v


@settings(max_examples=300)
@given(case=packed_substitutions())
def test_one_packed_substitution_sorts_and_signs_as_sort_word(case):
    """Pack w and the value term v (``DerivationD._value_terms``), substitute
    v for w[pos] by the walk's rule (key(w) - unit[x] + key(v), zero iff
    odd(v) & (P | C), sign parity popcount((P & above) ^ (C & below))) and
    for the base (key(w) + key(v), zero iff odd(v) & odd(w), parity
    popcount(odd(w) & below)), and unpack: the word and sign parity are those
    of ``signs._sort_word`` on the concatenated letters, and the result
    vanishes exactly where it returns None."""
    alg, w, pos, v = case
    one = alg.base.one()
    value = SymElement(alg, {v: one})
    x = w[pos] if w else 0
    D = DerivationD(alg, {1: value}, {x: value}, check=False)
    on_algebra, on_letters = D._value_terms()
    ((length, key_v, odd_v, above, below, _),) = on_letters[x]
    assert on_algebra[1] == on_letters[x] and length == len(v)
    key, mask = alg._pack(w)
    assert alg._unpack(key) == w and alg._unpack(key_v) == v

    def agrees(letters, packed_key, vanishes, parity):
        merged = _sort_word(alg.letter_degrees, letters)
        assert vanishes == (merged is None), letters
        if merged is not None:
            assert (alg._unpack(packed_key), parity) == (merged[0], merged[1] & 1), letters

    agrees(v + w, key + key_v, bool(odd_v & mask), (mask & below).bit_count() & 1)
    if w:
        prefix_odd, rest_odd = alg._pack(w[:pos])[1], alg._pack(w[pos + 1 :])[1]
        agrees(
            w[:pos] + v + w[pos + 1 :],
            key - alg._unit[x] + key_v,
            bool(odd_v & (prefix_odd | rest_odd)),
            ((prefix_odd & above) ^ (rest_odd & below)).bit_count() & 1,
        )


def test_the_square_at_cap_0_vanishes_on_every_letter():
    """At cap 0 every letter is zero, so D(D(x)) = 0 on a letter whatever
    value D stores there, though D applied to that value is not zero; on the
    base the square is read as at any cap."""
    base = nontrivial_dga()
    alg = SymAlgebra(base, [("y", 0)], cap=0)
    e, x = (alg.scalar(base.basis_element(i)) for i in (1, 2))
    D = DerivationD(alg, {1: x, 2: alg.scalar(base.basis_element(3))}, {0: e}, degree=0, check=False)
    assert alg.letter(0).is_zero() and not D.apply(D.on_letters[0]).is_zero()
    sq = square(D)
    assert sq == oracle_square(D)
    assert sq.on_letters == {} and sq.on_algebra == {1: D.apply(x)} != {}


@given(data=st.data())
def test_base_products_and_differentials_match_the_scalar_oracle(data):
    """AlgebraElement products and d_A, summed as unreduced triples through
    the one product rule, equal one reduced Scalar product and sum per
    structure constant, on the sample bases and ``gaussian_product_base``,
    with Gaussian coefficients over unequal denominators."""
    base = data.draw(st.sampled_from(ROW_KERNEL_BASES))
    x = data.draw(algebra_elements(base))
    y = data.draw(algebra_elements(base))
    assert x * y == scalar_base_mul(x, y)
    assert x.d() == scalar_base_d(x)


@given(data=st.data())
def test_transposes_match_the_scalar_oracle(data):
    """Both Chevalley-Eilenberg transposes, which read kappa(w) as an integer
    and sum unreduced triples through the product rule, equal one Scalar
    product per entry: on drawn algebras over the sample bases and
    ``gaussian_product_base``, with drawn generator degrees and read signs."""
    alg = data.draw(drawn_algebras(4))
    base, n = alg.base, alg.n_letters
    degrees = data.draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))
    exponents = data.draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    table = data.draw(st.dictionaries(st.integers(0, n - 1), drawn_elements(alg), max_size=n))
    weights = range(alg.cap + 1)
    transposed = _letter_transpose(alg, table, degrees, exponents, weights)
    got = {w: {i: _summed(base, sums) for i, sums in values.items()} for w, values in transposed.items()}
    assert got == scalar_letter_transpose(alg, table, degrees, exponents, weights)
    words = [w for r in weights for w in alg.words_of_weight(r)]
    keys = st.tuples(st.sampled_from(words), st.integers(0, n - 1))
    entries = [(w, i, v) for (w, i), v in data.draw(st.dictionaries(keys, algebra_elements(base), max_size=6)).items()]
    assert _word_transpose(alg, entries, degrees, exponents) == scalar_word_transpose(alg, entries, degrees, exponents)


def _unreduced(element):
    """The coefficients of an element that are not reduced nonzero triples."""
    return [
        (v, k, (c.n_re, c.n_im, c.den))
        for v, a in element.items()
        for k, c in a.items()
        if c.den <= 0 or gcd(c.n_re, c.n_im, c.den) != 1 or c.is_zero()
    ]


@given(data=st.data())
def test_rows_and_apply_results_hold_reduced_nonzero_scalars(data):
    """Scalar equality compares triples, so a row or a result that kept an
    unreduced or zero coefficient would compare unequal to its value: every
    ``_row``, ``apply`` on drawn elements and every value of the square."""
    D = data.draw(drawn_derivations())
    alg = D.algebra
    for w, i in _grid(alg):
        assert _unreduced(D._row(w, i)) == [], (w, i)
    results = [D.apply(data.draw(drawn_elements(alg))) for _ in range(2)]
    results += [value for _, _, _, value in square(D).labelled()]
    for x in results:
        assert _unreduced(x) == []


@given(data=st.data())
def test_row_is_apply_of_the_one_term_element(data):
    """The lemma rows and ``apply`` read the same walk: ``_row(w, i)`` is
    ``apply`` of the one-term element e_i w, on every grid element of a
    drawn derivation (sample bases and ``gaussian_product_base``, odd and
    even letters, caps 0..5)."""
    D = data.draw(drawn_derivations())
    alg = D.algebra
    for w, i in _grid(alg):
        image = D.apply(SymElement(alg, {w: alg.base.basis_element(i)}))
        assert D._row(w, i) == image, (w, i)


def test_apply_sums_rows_with_their_scalars():
    """One grid element taken with coefficients 1, -1, 2/3 and 1 + i, alone and
    in sums: each result is the scalar times the row of the unit element."""
    base, module, alg = make_setup(seed=61, cap=3)
    rng = Rng(62)
    D = random_derivation(rng, alg, 1)
    Phi = random_unipotent(rng, alg)
    e = base.basis_element(1)
    unit = SymElement(alg, {(0, 1): e})
    other = SymElement(alg, {(1,): base.one()})
    for op in (D.apply, Phi.apply, Phi.apply_inverse):
        row = op(unit)
        for s in (Scalar(1), Scalar(-1), Scalar(Fraction(2, 3)), Scalar(1, 1)):
            assert op(unit.scale(s)) == row.scale(s)
            assert op(unit.scale(s) + other) == row.scale(s) + op(other)


def _held_sizes(D):
    """The size of everything a derivation holds: its value tables, the
    number of its packed value terms and whether it keeps its square."""
    terms = sum(len(t) for table in D._terms for t in table.values()) if D._terms is not None else None
    return len(D.on_algebra), len(D.on_letters), terms, D._square is not None


def test_second_conjugate_grows_no_per_walk_state():
    """A second conjugation holds nothing more than the first: every attribute
    of phi and D0 has the same size after it, so no state of the walks grows
    with the grid elements they read, and the algebra's table of unpacked
    words holds words of the algebra only."""
    base, module, alg = make_setup(seed=55, cap=4)
    D0 = d0_derivation(alg, module)
    Phi = random_unipotent(Rng(56), alg)
    assert Phi.phi.on_algebra or Phi.phi.on_letters
    first = conjugate(Phi, D0)
    met = _held_sizes(Phi.phi), _held_sizes(D0)
    unpacked = dict(alg._unpacked)
    assert all(terms for _, _, terms, _ in met)
    assert conjugate(Phi, D0) == first
    assert (_held_sizes(Phi.phi), _held_sizes(D0)) == met
    assert alg._unpacked == unpacked
    words = {w for r in range(alg.cap + 1) for w in alg.words_of_weight(r)}
    assert set(unpacked.values()) <= words
    for d in (Phi.phi, D0):
        assert set(vars(d)) == DERIVATION_ATTRIBUTES


def test_mc_check_applies_phi_only_inside_the_shared_conjugation(workloads):
    """The two checks of ``mc`` on gen_a3_b4_w5 (seed 0) apply phi only
    inside the one conjugation they share: after it, neither the residual
    nor the square components reads one more grid element through phi."""
    g = parse_model(workloads.generate_model_text("gen_a3_b4_w5.geometric", 0))
    alg = SymAlgebra.over_module(g.normal, cap=g.cap)
    D0 = d0_derivation(alg, g.normal)
    Phi = random_unipotent(Rng(0), alg)
    phi = Phi.phi
    reads = 0
    apply = phi.apply

    def recording(element):
        nonlocal reads
        reads += sum(len(a.coeffs) for _, a in element.coeffs)
        return apply(element)

    phi.apply = recording
    conjugated = conjugate(Phi, D0)
    conjugation_reads = reads
    assert mc_residual(D0, conjugated) == {}
    assert square_components(conjugated) == {}
    assert reads == conjugation_reads > 0


def test_mc_checks_multiply_no_sym_elements(workloads, monkeypatch):
    """On gen_a3_b4_w5 (seed 0) the two checks of ``mc`` call
    ``SymElement.__mul__`` not once, and no object of the package holds a
    row table: phi, D0, the conjugate and its square keep no table per grid
    element."""
    g = parse_model(workloads.generate_model_text("gen_a3_b4_w5.geometric", 0))
    alg = SymAlgebra.over_module(g.normal, cap=g.cap)
    D0 = d0_derivation(alg, g.normal)
    Phi = random_unipotent(Rng(0), alg)
    calls = 0
    mul = SymElement.__mul__

    def counting(x, y):
        nonlocal calls
        calls += 1
        return mul(x, y)

    monkeypatch.setattr(SymElement, "__mul__", counting)
    conjugated = conjugate(Phi, D0)
    assert mc_residual(D0, conjugated) == {}
    assert square_components(conjugated) == {}
    assert calls == 0
    holders = [
        o for o in gc.get_objects()
        if type(o).__module__.startswith("algebroidkit.") and "_rows" in getattr(o, "__dict__", {})
    ]
    assert holders == []
    for d in (Phi.phi, D0, conjugated, square(conjugated)):
        assert set(vars(d)) == DERIVATION_ATTRIBUTES


def test_private_constructor_agrees_with_public_one():
    """Every result built without the public checks has the data the public
    constructor gives for the same mapping: sorted words, nonzero coefficients."""
    base, module, alg = make_setup(seed=65, cap=3)
    rng = Rng(66)
    D = random_derivation(rng, alg, 1)

    def same_as_public(el):
        public = SymElement(el.algebra, el.data)
        assert list(el.data.items()) == list(public.data.items())
        return el

    for _ in range(5):
        x = sparse_sym_element(rng, alg, 0.5)
        y = sparse_sym_element(rng, alg, 0.5)
        total = same_as_public(x + y)
        want = {w: x.data.get(w, base.zero()) + y.data.get(w, base.zero()) for w in set(x.data) | set(y.data)}
        assert total == SymElement(alg, want)
        assert same_as_public(x - y) == SymElement(
            alg, {w: x.data.get(w, base.zero()) - y.data.get(w, base.zero()) for w in set(x.data) | set(y.data)}
        )
        assert same_as_public(x - x).is_zero()
        assert same_as_public(x + (-x)).is_zero()
        assert same_as_public(-x) == SymElement(alg, {w: -a for w, a in x.items()})
        for s in (Scalar(0), Scalar(-1), Scalar(Fraction(3, 2), 1)):
            assert same_as_public(x.scale(s)) == SymElement(alg, {w: a.scale(s) for w, a in x.items()})
        for r in range(alg.cap + 1):
            assert same_as_public(x.weight_part(r)) == SymElement(
                alg, {w: a for w, a in x.items() if len(w) == r}
            )
        same_as_public(x * y)  # the finisher of a product table
        assert same_as_public(D.apply(x)) == reference_apply(D, x)  # the finisher of a walk table


def test_automorphism_rejects_elements_of_another_algebra():
    """Row keys carry no algebra: a weight-0 element of another algebra, a
    letter past Phi's letters and another cap are refused, not misread."""
    base, module, alg = make_setup(seed=1, cap=3)
    Phi = random_unipotent(Rng(1), alg)
    assert Phi.phi.on_algebra or Phi.phi.on_letters
    wider = SymAlgebra(base, [(n, d) for n, d in zip(alg.letter_names, alg.letter_degrees)] + [("h^", 0)], cap=3)
    taller = SymAlgebra(base, list(zip(alg.letter_names, alg.letter_degrees)), cap=4)
    other_base = SymAlgebra(kodaira_base(), list(zip(alg.letter_names, alg.letter_degrees)), cap=3)
    for el in (
        wider.scalar(base.one()),
        wider.letter(alg.n_letters),
        taller.letter(0),
        other_base.scalar(other_base.base.one()),
    ):
        with pytest.raises(BaseMismatch):
            Phi.apply(el)
        with pytest.raises(BaseMismatch):
            Phi.apply_inverse(el)


# -- nabla_bar rows ------------------------------------------------------------------


def reference_nabla_bar(g, el):
    """nabla_hat on the whole element, then the 1/m rescale of every output
    word; a word without tangent letters, which rule R rules out, raises."""
    raw = g._nabla_hat.apply(el)
    out = {}
    for w, c in raw.items():
        m = g.tangent_count(w)
        if m == 0:
            raise KitError("nabla_bar produced a word without tangent letters")
        out[w] = c.scale(Scalar(Fraction(1, m)))
    return SymElement(g.amb, out)


def test_nabla_bar_matches_rescaled_nabla_hat():
    """nabla_bar keeps no table of its own, and nabla_hat none per grid
    element: the model gains only nabla_hat, built on the first read."""
    from algebroidkit.fixtures import random_geometric_model

    for seed in range(2):
        g = random_geometric_model(
            Rng(70 + seed), nontrivial_dga(), [0, 1], [0, -1, 0], cap=4, seed_modules=70 + seed
        )
        attributes = set(vars(g))
        rng = Rng(72 + seed)
        for _ in range(6):
            x = sparse_sym_element(rng, g.amb, 0.3)
            assert g.nabla_bar(x) == reference_nabla_bar(g, x)
        assert set(vars(g)) == attributes | {"_nabla_hat"}
        assert set(vars(g._nabla_hat)) == DERIVATION_ATTRIBUTES


# -- the generator walk ---------------------------------------------------------


def _two_letter_algebra():
    """nontrivial_dga with letters g0^ (degree 0) and g1^ (degree 1)."""
    base = nontrivial_dga()
    module = FreeModule(base, [("g0", 0), ("g1", -1)])
    return base, SymAlgebra.over_module(module, cap=3)


def test_generators_walk_base_elements_then_letters():
    base, alg = _two_letter_algebra()
    gens = list(alg.generators())
    assert [(slot, i, label) for slot, i, label, _ in gens] == [
        (0, 0, "1"), (0, 1, "e"), (0, 2, "x"), (0, 3, "x*e"), (1, 0, "g0^"), (1, 1, "g1^")
    ]
    assert [x for *_, x in gens] == [alg.scalar(base.basis_element(i)) for i in range(4)] + [
        alg.letter(0), alg.letter(1)
    ]


def test_operator_refusal_texts_name_the_generator():
    base, alg = _two_letter_algebra()
    e, x_e = alg.scalar(base.basis_element(1)), alg.scalar(base.basis_element(3))
    cases = [
        (lambda: DerivationD(alg, {1: e}, {}), "derivation value on e has degree 1, expected 2"),
        (
            lambda: DerivationD(alg, {}, {0: alg.letter(0)}),
            "derivation value on letter g0^ has degree 0, expected 1",
        ),
        (lambda: DerivationD(alg, {1: e + alg.scalar(base.one())}, {}), "derivation value on e is not homogeneous"),
    ]
    for build, message in cases:
        with pytest.raises(KitError) as err:
            build()
        assert str(err.value) == message


def test_a_derivation_refuses_a_value_on_the_unit():
    """A derivation kills the unit, D(1) = D(1 * 1) = 2 D(1), and ``square``
    reads D(x) off the table on that ground: a nonzero value on the unit is
    refused, naming it, with or without the degree check, whatever its
    degree; a zero value there is no value."""
    base, alg = _two_letter_algebra()
    e = alg.scalar(base.basis_element(1))
    message = f"derivation value on the unit {base.names[base.unit]!r} is not zero"
    for value in (alg.scalar(base.one()), e, alg.letter(0, base.basis_element(1))):
        for check in (True, False):
            for degree in (0, 1):
                with pytest.raises(KitError) as err:
                    DerivationD(alg, {base.unit: value}, {}, degree=degree, check=check)
                assert str(err.value) == message
    assert DerivationD(alg, {base.unit: alg.zero()}, {}) == DerivationD(alg, {}, {})


def _odd_first_algebra():
    """nontrivial_dga with letters x (degree 1) and y (degree 0)."""
    base = nontrivial_dga()
    return base, SymAlgebra(base, [("x", 1), ("y", 0)], cap=3)


def _refused_word(alg, word):
    with pytest.raises(KitError) as err:
        SymElement(alg, {word: alg.base.one()})
    return str(err.value)


def test_sym_element_refuses_an_unsorted_word():
    """(1, 0) is not kept beside (0, 1), the same element up to sign:
    ``SymAlgebra.word`` sorts it, with its Koszul sign."""
    base, alg = _odd_first_algebra()
    message = "word (1, 0) is not a sorted tuple of letter indices below 2"
    assert _refused_word(alg, (1, 0)) == message
    assert alg.word((1, 0)) == SymElement(alg, {(0, 1): base.one()})


def test_sym_element_refuses_a_word_repeating_an_odd_letter_out_of_order():
    """(0, 1, 0) repeats the odd letter x and vanishes; sorted, (0, 0) is
    dropped as zero."""
    base, alg = _odd_first_algebra()
    message = "word (0, 1, 0) is not a sorted tuple of letter indices below 2"
    assert _refused_word(alg, (0, 1, 0)) == message
    assert alg.word((0, 1, 0)).is_zero()
    assert SymElement(alg, {(0, 0): base.one()}).is_zero()


def test_sym_element_refuses_a_letter_index_it_does_not_have():
    """Letter 5 of two letters would make ``degree`` raise IndexError; -1
    would read the last letter."""
    _, alg = _odd_first_algebra()
    for word in ((5,), (0, 5), (-1, 0)):
        message = f"word {word!r} is not a sorted tuple of letter indices below 2"
        assert _refused_word(alg, word) == message


def test_operators_refuse_keys_that_name_no_generator():
    """A table key outside the generators is refused whatever check is set
    to: nothing would apply its value, yet == would compare it.  exp(phi)
    takes its tables from phi, so phi's own refusal covers it."""
    base, alg = _two_letter_algebra()
    el, n = alg.letter(0), base.dim
    cases = [
        (DerivationD, {}, {99: el}, "operator key 99 names no letter: there are 2"),
        (DerivationD, {-1: el}, {}, f"operator key -1 names no base element: there are {n}"),
    ]
    for cls, on_algebra, on_letters, message in cases:
        for check in (True, False):
            with pytest.raises(KitError) as err:
                cls(alg, on_algebra, on_letters, check=check)
            assert str(err.value) == message


def test_exp_refuses_a_phi_that_is_not_a_weight_raising_degree_0_derivation():
    """The degree of phi, a value of the wrong degree and a value that does
    not raise the weight, on a base element and on a letter: one line each,
    naming the generator."""
    base, alg = _two_letter_algebra()
    e, x = base.basis_element(1), base.basis_element(2)
    g0, g1 = alg.letter(0), alg.letter(1)

    def phi(on_algebra, on_letters, degree=0):
        return DerivationD(alg, on_algebra, on_letters, degree=degree, check=False)

    cases = [
        (phi({}, {}, degree=1), "automorphism exp(phi) needs a degree-0 derivation, not degree 1"),
        (phi({1: g1.a_mul(e)}, {}), "derivation value on e has degree 2, expected 1"),
        (phi({}, {0: g0 * g1}), "derivation value on letter g0^ has degree 1, expected 0"),
        (phi({2: alg.scalar(x)}, {}), "automorphism is not the identity on gr at base element x"),
        (phi({}, {0: g0 * g0 + g0.a_mul(x)}), "automorphism is not the identity on gr at letter g0^"),
        (phi({}, {1: g1 * g0 + g0.a_mul(e)}), "automorphism is not the identity on gr at letter g1^"),
    ]
    for derivation, message in cases:
        with pytest.raises(KitError) as err:
            FilteredAutomorphism(derivation)
        assert str(err.value) == message
