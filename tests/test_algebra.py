"""Base algebra and module layer."""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algebroidkit.algebra import AlgebraElement, BaseAlgebra, validate_base_algebra
from algebroidkit.errors import BaseMismatch, DegreeError, KitError
from algebroidkit.fixtures import eps_poly_base, lambda_eps, nontrivial_dga, truncated_poly
from algebroidkit.linfty import AlgebraDerivation
from algebroidkit.modules import FreeModule, ModuleElement, pair_dual, validate_module
from algebroidkit.scalars import MINUS_ONE, ONE, Scalar, sign_scalar
from algebroidkit.symtensor import SymAlgebra, SymElement
from builders import Rng, eps_square_base, trivial_base
from modelio_oracle import scalar_from_quadruple
from test_symtensor import ROW_KERNEL_BASES


def test_scalar_arithmetic():
    a = Scalar(Fraction(1, 2), Fraction(1, 3))
    b = Scalar(2, -1)
    assert (a + b) - b == a
    assert a * b == Scalar(Fraction(4, 3), Fraction(1, 6))
    assert (a * b.inverse()) * b == a
    assert Scalar(0, 1) * Scalar(0, 1) == Scalar(-1)
    q = a.as_quadruple()
    assert scalar_from_quadruple(q) == a


@pytest.mark.parametrize(
    "x, y",
    [
        (Scalar(Fraction(-3, 4)), Scalar(Fraction(2, 9))),  # real-only branch of __mul__
        (Scalar(Fraction(1, 2), Fraction(-2, 3)), Scalar(Fraction(5, 6), Fraction(1, 7))),
        (Scalar(Fraction(7, 3)), Scalar(0, Fraction(-1, 2))),
        (Scalar(Fraction(2, 5), 1), Scalar(Fraction(-2, 5), -1)),  # sums to zero
    ],
)
def test_scalar_results_equal_constructed_scalars(x, y):
    """Fast-path results equal Scalar(re, im) built from the same Fractions."""
    (a, b), (c, d) = _parts(x), _parts(y)
    cases = [
        (x + y, a + c, b + d),
        (x - y, a - c, b - d),
        (-x, -a, -b),
        (x * y, a * c - b * d, a * d + b * c),
        (y * x, c * a - d * b, c * b + d * a),
    ]
    for got, re, im in cases:
        want = Scalar(re, im)
        assert got == want and want == got
        assert hash(got) == hash(want)
        assert got.as_quadruple() == want.as_quadruple()
        assert got.is_zero() == want.is_zero()


# -- the integer triple against a Fraction-pair oracle -------------------------
#
# The oracle is the former implementation: a Gaussian rational as a pair of
# Fractions (re, im), hashed as the pair and printed part by part.


def _parts(x):
    """(re, im) of a Scalar, as Fractions."""
    return Fraction(x.n_re, x.den), Fraction(x.n_im, x.den)


def _oracle_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def _oracle_inverse(x):
    a, b = x
    n = a * a + b * b
    if not n:
        raise ZeroDivisionError("inverse of zero")
    return a / n, -b / n


def _oracle_repr(x):
    re, im = x
    if not re and not im:
        return "0"
    parts = []
    if re:
        parts.append(str(re))
    if im:
        sign = "-" if im < 0 else ("+" if parts else "")
        parts.append(f"{sign}{abs(im)}i" if parts or sign == "-" else f"{im}i")
    return "".join(parts)


def _canonical_triple(x):
    """(n_re, n_im, den): both parts over the least common denominator."""
    re, im = x
    den = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


def _assert_matches(got, want):
    assert (got.n_re, got.n_im, got.den) == _canonical_triple(want)
    assert _parts(got) == want
    assert hash(got) == hash(want)
    assert repr(got) == _oracle_repr(want)
    re, im = want
    assert got.as_quadruple() == {
        "num": re.numerator, "den": re.denominator, "inum": im.numerator, "iden": im.denominator,
    }
    assert got.is_zero() == (not re and not im)


_INT = st.one_of(st.integers(-6, 6), st.integers(-(2**80), 2**80))
_DEN = st.one_of(st.integers(1, 6), st.integers(1, 2**80))
_PART = st.one_of(st.just(Fraction(0)), st.builds(Fraction, _INT, _DEN))
_PAIR = st.tuples(_PART, _PART)  # zero, real-only and purely imaginary included


@settings(max_examples=400)
@given(x=_PAIR, y=_PAIR, k=st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70)).filter(bool))
@example(x=(Fraction(0), Fraction(0)), y=(Fraction(0), Fraction(-2**65, 3)), k=-1)
@example(x=(Fraction(2**65 + 1, 2**64), Fraction(0)), y=(Fraction(-1, 2**64), Fraction(0)), k=2)
def test_scalar_triple_matches_fraction_oracle(x, y, k):
    a, b = Scalar(*x), Scalar(*y)
    _assert_matches(a, x)
    _assert_matches(-a, (-x[0], -x[1]))
    _assert_matches(a + b, (x[0] + y[0], x[1] + y[1]))
    _assert_matches(a - b, (x[0] - y[0], x[1] - y[1]))
    _assert_matches(a * b, _oracle_mul(x, y))
    for u, v, ov in ((a, b, y), (b, a, x)):
        if not ov[0] and not ov[1]:
            with pytest.raises(ZeroDivisionError):
                v.inverse()
        else:
            _assert_matches(v.inverse(), _oracle_inverse(ov))
            _assert_matches(u * v.inverse(), _oracle_mul(_parts(u), _oracle_inverse(ov)))
    assert (a == b) == (x == y) and (a != b) == (x != y)
    # one value reached in several ways: identical triples, equal hashes
    q = a.as_quadruple()
    scaled = {"num": q["num"] * k, "den": q["den"] * k, "inum": q["inum"] * -k, "iden": q["iden"] * -k}
    for same in ((a + b) - b, a * Scalar.one(), scalar_from_quadruple(scaled), scalar_from_quadruple(q)):
        assert same == a and hash(same) == hash(a)
        assert (same.n_re, same.n_im, same.den) == (a.n_re, a.n_im, a.den)


_QUAD_NUM = st.one_of(st.just(0), st.integers(-12, 12), st.integers(-(10**15), 10**15))
_QUAD_DEN = st.one_of(st.integers(-12, 12), st.integers(-(10**12), 10**12)).filter(bool)


@settings(max_examples=300)
@given(num=_QUAD_NUM, den=_QUAD_DEN, inum=_QUAD_NUM, iden=_QUAD_DEN)
@example(num=0, den=5, inum=0, iden=-7)  # zero
@example(num=6, den=-4, inum=0, iden=1)  # real only, unreduced, negative denominator
@example(num=0, den=1, inum=-10**12, iden=3 * 10**12)  # imaginary only, negative
@example(num=-2, den=10**12, inum=5, iden=10**12)  # both parts over a large denominator
def test_scalar_repr_matches_fraction_formatting(num, den, inum, iden):
    """repr formats the parts from the reduced triple, each as str(Fraction)
    writes it; the oracle reduces each part of the quadruple on its own."""
    q = {"num": num, "den": den, "inum": inum, "iden": iden}
    assert repr(scalar_from_quadruple(q)) == _oracle_repr((Fraction(num, den), Fraction(inum, iden)))

def test_standard_bases_validate():
    for base in [trivial_base(), lambda_eps(), eps_square_base(), truncated_poly(), eps_poly_base(), nontrivial_dga()]:
        assert validate_base_algebra(base) == []


def test_exterior_square_zero():
    base = lambda_eps()
    e = base.from_names({"e": ONE})
    assert (e * e).is_zero()
    assert e * base.one() == e


def test_fabricated_square_reported():
    # exterior generator with e*e = 1 violates graded commutativity/nilpotence
    basis = [("1", 0), ("e", 1)]
    bad = BaseAlgebra(basis, unit=0, products={(1, 1): {0: ONE}})
    problems = validate_base_algebra(bad)
    assert problems == ["product e*e has degree 0, expected 2", "graded commutativity fails on (e, e)"]


# One input per message of ``validate_base_algebra``: (basis, products,
# differential, the whole list of problems).  Every non-unit product not
# given is zero, so d_A obeys Leibniz unless a product says otherwise.
BASE_ALGEBRA_WITNESSES = {
    "inhomogeneous product": (
        [("1", 0), ("a", 0), ("b", 1)], {(1, 1): {1: ONE, 2: ONE}}, {},
        ["product a*a is not homogeneous"],
    ),
    "product degree": (
        [("1", 0), ("a", 0), ("c", 2)], {(1, 1): {2: ONE}}, {},
        ["product a*a has degree 2, expected 0"],
    ),
    "commutativity": (
        [("1", 0), ("e", 1), ("u", 2)], {(1, 1): {2: ONE}}, {},
        ["graded commutativity fails on (e, e)"],
    ),
    # a.a = b and a.b = b.a = b: a(ab) = b but (aa)b = bb = 0, and mirrored
    "associativity": (
        [("1", 0), ("a", 0), ("b", 0)], {(1, 1): {2: ONE}, (1, 2): {2: ONE}}, {},
        ["associativity fails on (a, a, b)", "associativity fails on (b, a, a)"],
    ),
    "inhomogeneous differential": (
        [("1", 0), ("x", 0), ("y", 1), ("z", 2)], {}, {1: {2: ONE, 3: ONE}},
        ["d(x) is not homogeneous"],
    ),
    "differential degree": (
        [("1", 0), ("x", 0), ("z", 2)], {}, {1: {2: ONE}},
        ["d(x) has degree 2, expected 1"],
    ),
    "square": (
        [("1", 0), ("x", 0), ("y", 1), ("z", 2)], {}, {1: {2: ONE}, 2: {3: ONE}},
        ["d^2 != 0 on x"],
    ),
    # x idempotent and x.y = 0: d(x.x) = y but d(x).x + x.d(x) = 0
    "leibniz": (
        [("1", 0), ("x", 0), ("y", 1)], {(1, 1): {1: ONE}}, {1: {2: ONE}},
        ["Leibniz fails on (x, x)"],
    ),
}


@pytest.mark.parametrize("case", BASE_ALGEBRA_WITNESSES)
def test_base_algebra_message_witness(case):
    basis, products, differential, problems = BASE_ALGEBRA_WITNESSES[case]
    assert validate_base_algebra(BaseAlgebra(basis, 0, products, differential)) == problems


def test_twisted_differential_passes():
    base = nontrivial_dga()
    assert validate_base_algebra(base) == []
    x = base.from_names({"x": ONE})
    xe = base.from_names({"x*e": ONE})
    assert x.d() == xe
    assert (x * x).is_zero()
    assert x.d().d().is_zero()


def test_differential_of_the_wrong_degree_reported():
    # d(e) = 1 has the wrong degree but keeps Leibniz on (e, e): d(e).e - e.d(e)
    # = e - e = 0, so the degree alone is reported (a broken Leibniz rule is
    # the "leibniz" case of BASE_ALGEBRA_WITNESSES)
    basis = [("1", 0), ("e", 1)]
    bad = BaseAlgebra(basis, unit=0, products={(1, 1): {}}, differential={1: {0: ONE}})
    problems = validate_base_algebra(bad)
    assert problems == ["d(e) has degree 0, expected 2"]


def test_algebra_element_refuses_an_index_it_does_not_have():
    """Index 7 of four basis elements would make ``repr`` raise IndexError;
    -1 would read the last basis element."""
    base = eps_poly_base()
    for i in (7, 4, -1):
        with pytest.raises(KitError, match=f"^coefficient index {i} names no basis element: there are 4$"):
            AlgebraElement(base, {0: ONE, i: ONE})


def test_base_algebra_refuses_a_product_index_it_does_not_have():
    """Nothing reads a product of basis element 5 of two: the pair would be
    dropped without a word."""
    basis = [("1", 0), ("e", 1)]
    with pytest.raises(KitError, match="^product index 5 names no basis element: there are 2$"):
        BaseAlgebra(basis, 0, {(5, 1): {1: ONE}})


def test_base_algebra_refuses_a_differential_index_it_does_not_have():
    """Nothing reads the differential of basis element 7 of two."""
    basis = [("1", 0), ("e", 1)]
    with pytest.raises(KitError, match="^differential index 7 names no basis element: there are 2$"):
        BaseAlgebra(basis, 0, {}, {7: {1: ONE}})


def test_constructor_refuses_values_on_the_unit():
    """A given product with the unit must be the other factor, and d_A(1)
    must be zero; a pair that states the unit law, or a zero differential of
    the unit, is accepted."""
    basis = [("1", 0), ("e", 1)]
    two = Scalar(2)
    for products, message in (
        ({(0, 1): {1: two}}, "product '1' * 'e' breaks the unit law"),
        ({(1, 0): {}}, "product 'e' * '1' breaks the unit law"),
        ({(0, 0): {0: ONE, 1: ONE}}, "product '1' * '1' breaks the unit law"),
    ):
        with pytest.raises(KitError, match=f"^{re.escape(message)}$"):
            BaseAlgebra(basis, unit=0, products=products)
    with pytest.raises(KitError, match="^differential of the unit '1' is not zero$"):
        BaseAlgebra(basis, unit=0, products={}, differential={0: {1: ONE}})
    stated = BaseAlgebra(basis, unit=0, products={(0, 1): {1: ONE, 0: Scalar(0)}, (1, 0): {1: ONE}},
                         differential={0: {1: Scalar(0)}})
    assert validate_base_algebra(stated) == []


def test_element_degree_decomposition():
    base = eps_poly_base()
    rng = Rng(5)
    el = rng.algebra_element(base)
    parts = el.homogeneous_parts()
    total = base.zero()
    for d, p in parts.items():
        assert p.degree() == d
        total = total + p
    assert total == el


def test_inhomogeneous_degree_raises():
    base = lambda_eps()
    mixed = base.one() + base.from_names({"e": ONE})
    with pytest.raises(DegreeError):
        mixed.degree()


def test_graded_commutativity_random():
    base = eps_poly_base()
    rng = Rng(11)
    for _ in range(30):
        a = rng.algebra_element(base)
        b = rng.algebra_element(base)
        lhs = a * b
        rhs = base.zero()
        for da, ha in a.homogeneous_parts().items():
            for db, hb in b.homogeneous_parts().items():
                rhs = rhs + (hb * ha).scale(sign_scalar(da * db))
        assert lhs == rhs


# -- modules -----------------------------------------------------------------


def test_module_zero_differential_passes():
    base = lambda_eps()
    mod = FreeModule(base, [("g", 0), ("h", 1)])
    assert validate_module(mod) == []


def test_module_eps_differential():
    base = lambda_eps()
    mod = FreeModule(base, [("g", 0)])
    e = base.from_names({"e": ONE})
    mod.set_differential({0: ModuleElement(mod, {0: e})})
    assert validate_module(mod) == []
    g = mod.generator(0)
    assert g.d() == ModuleElement(mod, {0: e})
    assert g.d().d().is_zero()


def test_module_bad_differential_reported():
    base = truncated_poly("u", 2, 3)  # u^2 != 0
    mod = FreeModule(base, [("g", 0)])
    u = base.from_names({"u": ONE})
    mod.set_differential({0: ModuleElement(mod, {0: u})})
    problems = validate_module(mod)
    assert problems == ["d(g) has degree 2, expected 1", "d^2 != 0 on generator g"]


@pytest.mark.parametrize(
    "degrees, differential, problems",
    [
        ([0, 1, 2], {0: [1, 2]}, ["d(g0) is not homogeneous"]),
        ([0, 2], {0: [1]}, ["d(g0) has degree 2, expected 1"]),
        ([0, 1, 2], {0: [1], 1: [2]}, ["d^2 != 0 on generator g0"]),
    ],
    ids=["inhomogeneous", "degree", "square"],
)
def test_module_message_witness(degrees, differential, problems):
    """One input per message of ``validate_module``, over the ground field:
    d(g_i) is the sum of the generators differential[i] lists."""
    base = trivial_base()
    mod = FreeModule(base, [(f"g{i}", d) for i, d in enumerate(degrees)])
    mod.set_differential({i: ModuleElement(mod, {j: base.one() for j in js}) for i, js in differential.items()})
    assert validate_module(mod) == problems


def test_module_differential_refuses_an_index_it_does_not_have():
    """Nothing reads the differential of generator 5 of two."""
    module = FreeModule(lambda_eps(), [("g0", 0), ("g1", 1)])
    with pytest.raises(KitError, match="^differential index 5 names no generator: there are 2$"):
        module.set_differential({5: module.generator(0)})


def test_module_element_refuses_an_index_it_does_not_have():
    """Generator 7 of two would make ``degree`` and ``repr`` raise IndexError."""
    base = lambda_eps()
    module = FreeModule(base, [("g0", 0), ("g1", 1)])
    with pytest.raises(KitError, match="^coefficient index 7 names no generator: there are 2$"):
        ModuleElement(module, {7: base.one()})


def test_algebra_derivation_refuses_an_index_it_does_not_have():
    """A value on basis element 9 would be compared by ``==`` yet never applied."""
    base = lambda_eps()
    with pytest.raises(KitError, match=f"^coefficient index 9 names no basis element: there are {base.dim}$"):
        AlgebraDerivation(base, {9: base.one()})


def test_module_leibniz_of_d():
    base = nontrivial_dga()
    mod = FreeModule(base, [("g", 1)])
    e = base.from_names({"e": ONE})
    mod.set_differential({0: ModuleElement(mod, {0: e})})
    rng = Rng(21)
    for _ in range(20):
        a = rng.algebra_element(base)
        v = rng.module_element(mod)
        lhs = v.a_mul(a).d()
        rhs = v.a_mul(a.d())
        for d, ha in a.homogeneous_parts().items():
            rhs = rhs + v.d().a_mul(ha).scale(sign_scalar(d))
        assert lhs == rhs


def test_dual_pairing_signs():
    base = lambda_eps()
    mod = FreeModule(base, [("g", 1)])
    e = base.from_names({"e": ONE})
    v = ModuleElement(mod, {0: e})
    # letter degree is -1 (odd); coefficient e is odd: sign -1
    assert pair_dual(mod, 0, v) == -e
    assert pair_dual(mod, 0, mod.generator(0)) == base.one()


# -- the one element protocol ---------------------------------------------------


def _element_kinds(base):
    """kind -> (space, a space of the same kind that does not mix with it,
    draw(rng, space) giving a random, in general inhomogeneous, element)."""
    generators = [("g0", 0), ("g1", 1), ("g2", -1)]
    letters = [("x0", 0), ("x1", 1), ("x2", -1)]

    def sym_element(rng, alg):
        words = [w for r in range(alg.cap + 1) for w in alg.words_of_weight(r)]
        return SymElement(alg, {w: rng.algebra_element(alg.base) for w in words if rng.random() < 0.3})

    def derivation(rng, space):
        return AlgebraDerivation(space, {i: rng.algebra_element(space) for i in range(space.dim)})

    return {
        "algebra": (base, trivial_base(), Rng.algebra_element),
        "module": (FreeModule(base, generators), FreeModule(base, generators), Rng.module_element),
        "sym": (SymAlgebra(base, letters, cap=3), SymAlgebra(base, letters, cap=2), sym_element),
        "derivation": (base, trivial_base(), derivation),
    }


@settings(max_examples=120)
@given(
    base=st.sampled_from(ROW_KERNEL_BASES),
    kind=st.sampled_from(["algebra", "module", "sym", "derivation"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_element_type_keeps_the_laws_of_a_sparse_sum(base, kind, seed):
    """Sums, negation, scaling, left multiplication, degree parts, equality
    and hashing obey the same laws on all four element types, which share
    one implementation (``algebra.Combination``).  No command reaches most of
    these operations on module elements and derivations, so this is what
    holds them."""
    space, foreign, draw = _element_kinds(base)[kind]
    rng = Rng(seed)
    x, y, z = draw(rng, space), draw(rng, space), draw(rng, space)
    a = rng.algebra_element(base)
    zero = x.scale(Scalar.zero())
    assert zero.is_zero() and (x + (-x)).is_zero()
    assert x - y == x + (-y)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    parts = x.homogeneous_parts()
    assert sorted(parts) == list(parts)
    total = zero
    for d, part in parts.items():
        assert part.degree() == d
        total = total + part
    assert total == x
    if len(parts) > 1:
        with pytest.raises(DegreeError):
            x.degree()
    assert x.scale(ONE) == x and x.scale(MINUS_ONE) == -x
    assert (x + y).a_mul(a) == x.a_mul(a) + y.a_mul(a)
    copy = type(x)(x.space, dict(x.items()))
    assert copy == x and hash(copy) == hash(x)
    assert hash(x + y) == hash(y + x)
    with pytest.raises(BaseMismatch):
        x + draw(rng, foreign)
