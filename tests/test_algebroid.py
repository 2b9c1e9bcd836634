"""Chevalley-Eilenberg duality: round trips, residuals, square-zero equivalence."""

from __future__ import annotations

import hashlib
import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algebroidkit import algebroid
from algebroidkit.algebra import _summed
from algebroidkit.algebroid import (
    AlgebroidStructure,
    _letter_transpose,
    _word_transpose,
    algebroid_jacobi_residual,
    anchor_morphism_residual,
    ce_differential,
    d0_derivation,
    extract_structure,
    leibniz_residual,
)
from algebroidkit.errors import BaseMismatch, CapError, KitError
from algebroidkit.fixtures import (
    conjugation_oracle_structure,
    exterior_base,
    lambda_eps,
    mixed_module,
    nontrivial_dga,
    truncated_poly,
)
from algebroidkit.geometry import build_frakD, structure_from_geometry
from algebroidkit.modelio import parse_model, serialize_model
from algebroidkit.modules import FreeModule, ModuleElement, pair_dual
from algebroidkit.scalars import ONE, Scalar, sign_scalar
from algebroidkit.signs import Permutation, _nonvanishing_keys, enumerate_unshuffles, sym_sign
from algebroidkit.symtensor import (
    DerivationD,
    SymAlgebra,
    _evaluate_parts,
    evaluate,
    from_values,
    square_components,
)
from builders import Rng, random_algebroid, random_ce_derivation, sample_bases, standard_module
from geometry_oracle import from_dual_values
from linfty_oracle import oracle_jacobi_residual
from symtensor_oracle import oracle_d0_derivation, scalar_word_transpose

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def structures_equal(S1, S2) -> bool:
    if set(S1.brackets) != set(S2.brackets):
        return False
    for n in S1.brackets:
        if S1.brackets[n].keys() != S2.brackets[n].keys():
            return False
        for key in S1.brackets[n]:
            if S1.brackets[n][key].items() != S2.brackets[n][key].items():
                return False
    if set(S1.anchors) != set(S2.anchors):
        return False
    for n in S1.anchors:
        if S1.anchors[n].keys() != S2.anchors[n].keys():
            return False
        for key in S1.anchors[n]:
            if S1.anchors[n][key].items() != S2.anchors[n][key].items():
                return False
    return True


def test_trivial_structure_gives_d0():
    base = nontrivial_dga()
    carrier = standard_module(base, rank=2, seed=1)
    S = AlgebroidStructure(base, carrier)
    D = ce_differential(S, weight_cap=4)
    alg = D.algebra
    D0 = d0_derivation(alg, carrier)
    assert D == D0


def test_D0_on_base_is_dA():
    base = nontrivial_dga()
    carrier = standard_module(base, rank=2, seed=2)
    rng = Rng(31)
    S = random_algebroid(rng, base, carrier)
    D = ce_differential(S, weight_cap=4)
    for b in range(base.dim):
        got = D.component_on_algebra(0, b)
        assert got == D.algebra.scalar(base.differential_basis(b))


def test_round_trip_structure_to_derivation():
    rng = Rng(33)
    for base in sample_bases():
        for trial in range(8):
            carrier = standard_module(base, rank=rng.randint(1, 2), seed=100 + trial)
            S = random_algebroid(rng, base, carrier, derivation_anchors=False)
            D = ce_differential(S, weight_cap=4)
            S2 = extract_structure(D, carrier, bracket_cap=4)
            assert structures_equal(S, S2)


def test_round_trip_derivation_to_structure():
    rng = Rng(34)
    for base in sample_bases():
        carrier = standard_module(base, rank=2, seed=55)
        S, D, Phi = conjugation_oracle_structure(rng, carrier, cap=4)
        D2 = ce_differential(S, weight_cap=4)
        assert D2 == D


def test_extraction_requires_dA():
    base = nontrivial_dga()
    carrier = standard_module(base, rank=1, seed=9)
    alg = SymAlgebra.over_module(carrier, cap=3)
    from algebroidkit.symtensor import DerivationD

    odd = next(b for b in range(base.dim) if base.degrees[b] == 1)
    assert base.basis_element(odd).d() != base.one()
    bad = DerivationD(alg, {odd: alg.scalar(base.one())}, {}, check=False)
    with pytest.raises(KitError, match=f"^weight-0 action on {re.escape(base.names[odd])} is not d_A"):
        extract_structure(bad, carrier)


def test_extract_of_d0_is_abelian():
    base = lambda_eps()
    carrier = standard_module(base, rank=2, seed=4)
    alg = SymAlgebra.over_module(carrier, cap=4)
    D0 = d0_derivation(alg, carrier)
    S = extract_structure(D0, carrier)
    assert S.brackets == {}
    assert S.anchors == {}


def test_conjugation_oracle_passes_all_residuals():
    rng = Rng(35)
    for base in sample_bases():
        carrier = standard_module(base, rank=2, seed=66)
        S, D, Phi = conjugation_oracle_structure(rng, carrier, cap=4)
        assert square_components(D) == {}
        assert not any(algebroid_jacobi_residual(S, range(1, 5)).values())
        for n in range(1, 5):
            assert leibniz_residual(S, n) == {}
        for n in range(1, 4):
            assert anchor_morphism_residual(S, [n])[n] == {}


def single_entry_perturbations(S, limit=40):
    """Nonzero one-entry bracket bumps with valid degrees, deterministic order."""
    carrier = S.carrier
    base = S.base
    from algebroidkit.linfty import canonicalize_key

    out = []
    for n in range(2, S.bracket_cap + 1):
        for key in itertools.combinations_with_replacement(range(carrier.rank), n):
            _, _, vanishes = canonicalize_key(key, carrier.degrees, True)
            if vanishes:
                continue
            want = sum(carrier.degrees[i] for i in key) + 1
            for g in range(carrier.rank):
                for b in range(base.dim):
                    if base.degrees[b] + carrier.degrees[g] != want:
                        continue
                    bump = ModuleElement(carrier, {g: base.basis_element(b)})
                    out.append((n, key, bump))
                    if len(out) >= limit:
                        return out
    return out


def all_residuals_empty(S):
    jac = not any(algebroid_jacobi_residual(S, range(1, 5)).values())
    lei = all(leibniz_residual(S, m) == {} for m in range(1, 5))
    anc = all(anchor_morphism_residual(S, [m])[m] == {} for m in range(1, 4))
    return jac and lei and anc


def test_equivalence_square_iff_residuals():
    """square empty <=> all residual families vanish, incl. one-entry bumps."""
    rng = Rng(36)
    base = nontrivial_dga()
    carrier = mixed_module(base, [0, 1], seed=5)
    S, D, Phi = conjugation_oracle_structure(rng, carrier, cap=4)
    assert square_components(ce_differential(S, weight_cap=4)) == {}
    assert all_residuals_empty(S)

    broke_some = False
    for n, key, bump in single_entry_perturbations(S, limit=12):
        old = S.brackets.get(n, {}).get(key, carrier.zero())
        S.set_bracket(n, key, old + bump)
        sq_empty = square_components(ce_differential(S, weight_cap=4)) == {}
        res_empty = all_residuals_empty(S)
        assert sq_empty == res_empty
        if not sq_empty:
            broke_some = True
        S.set_bracket(n, key, old)
    assert broke_some


def test_ce_action_matches_unshuffle_expansion():
    """The Leibniz extension evaluates exactly as the two-sum expansion
    (anchor terms over Sh(n, r), bracket terms over Sh(n+1, r-1))."""
    rng = Rng(37)
    base = nontrivial_dga()
    carrier = standard_module(base, rank=2, seed=88)
    S = random_algebroid(rng, base, carrier, derivation_anchors=True)
    D = ce_differential(S, weight_cap=4)
    alg = D.algebra

    r = 2
    for word in alg.words_of_weight(r):
        eta = alg.word(word)
        eta_degree = alg.word_degree(word)
        for n in [0, 1, 2]:
            total_args = n + r
            image = D.apply(eta).weight_part(n + r)
            for key_tuple in [
                tuple(rng.randint(0, carrier.rank - 1) for _ in range(total_args))
                for _ in range(4)
            ]:
                gens = [carrier.generator(i) for i in key_tuple]
                degs = [carrier.degrees[i] for i in key_tuple]
                lhs = evaluate(image, gens, carrier)
                rhs = base.zero()
                for sigma in enumerate_unshuffles(n, r) if n else [Permutation.identity(r)]:
                    perm = [p - 1 for p in sigma.images]
                    sign = sym_sign(sigma, degs)
                    first_deg = sum(degs[p] for p in perm[:n])
                    eta_args = [gens[p] for p in perm[n:]]
                    eta_val = evaluate(eta, eta_args, carrier)
                    term = S.anchor(n + 1, [gens[p] for p in perm[:n]], eta_val)
                    rhs = rhs + term.scale(
                        Scalar(-1 if (eta_degree * first_deg) % 2 else 1)
                        * Scalar(sign)
                    )
                if r >= 1:
                    for tau in enumerate_unshuffles(n + 1, r - 1) if r > 1 else [
                        Permutation.identity(n + 1)
                    ]:
                        perm = [p - 1 for p in tau.images]
                        sign = sym_sign(tau, degs)
                        bracket_val = S.bracket(n + 1, [gens[p] for p in perm[: n + 1]])
                        rest = [gens[p] for p in perm[n + 1 :]]
                        term = evaluate(eta, [bracket_val] + rest, carrier)
                        rhs = rhs - term.scale(
                            Scalar(-1 if eta_degree % 2 else 1) * Scalar(sign)
                        )
                assert lhs == rhs


@pytest.mark.parametrize(
    "case, problems",
    [
        ("bracket inhomogeneous", ["bracket 2 at (0, 0) is not homogeneous"]),
        ("bracket degree", ["bracket 2 at (0, 0) has degree 0, expected 1"]),
        ("anchor inhomogeneous", ["anchor 2 at (0,)|e is not homogeneous"]),
        ("anchor degree", ["anchor 2 at (0,)|e has degree 0, expected 2"]),
        ("anchor derivation", ["anchor 2 at (0,) is not a derivation: Leibniz fails on (u, u) in degree 0"]),
    ],
)
def test_structure_message_witness(case, problems):
    """One input per message of ``AlgebroidStructure.validate`` and of its
    ``degree_problems``: one generator g and one table entry, the bracket
    {g, g}_2 = value.g or the anchor {g | e_1}_2 = value.  Over Lambda[e] the
    anchor value 1 + e on e splits into derivations of degrees -1 and 0, so
    only its degree is reported; over K[u]/(u^3) the anchor u on u, 0 on
    u^2, breaks Leibniz on (u, u)."""
    base = truncated_poly("u", 2, 3) if case == "anchor derivation" else lambda_eps()
    u_or_e = base.basis_element(1)
    degree, value = {
        "bracket inhomogeneous": (0, base.one() + u_or_e),
        "bracket degree": (0, base.one()),
        "anchor inhomogeneous": (0, base.one() + u_or_e),
        "anchor degree": (0, base.one()),
        "anchor derivation": (-1, u_or_e),
    }[case]
    carrier = FreeModule(base, [("g", degree)])
    S = AlgebroidStructure(base, carrier, bracket_cap=2)
    if case.startswith("bracket"):
        S.set_bracket(2, (0, 0), ModuleElement(carrier, {0: value}))
    else:
        S.set_anchor(2, (0,), 1, value)
    assert S.validate() == problems
    assert S.degree_problems() == [p for p in problems if "derivation" not in p]


def test_leibniz_residual_is_empty_by_construction():
    """The bracket is defined by the anchor Leibniz rule, so its residual is
    empty on structures whose anchors are no derivations (``validate``
    decides that).  At the unit, which adds no anchor term, it would be
    minus an anchor entry on the unit, and ``set_anchor`` refuses a nonzero
    one: an anchor is a derivation of the base, so it kills the unit."""
    rng = Rng(38)
    structures = flagged = refused = 0
    for base in sample_bases():
        unit_name = base.names[base.unit]
        for seed in range(12):
            carrier = standard_module(base, rank=rng.randint(1, 2), seed=200 + seed)
            S = random_algebroid(rng, base, carrier, derivation_anchors=False)
            structures += 1
            flagged += any("is not a derivation" in p for p in S.validate())
            for n in range(1, 5):
                assert leibniz_residual(S, n) == {}, (base.names, seed, n)
            value = rng.algebra_element(base, degree=carrier.degrees[0] + 1, zero_chance=0)
            if value.is_zero():
                continue
            with pytest.raises(KitError, match=f"^anchor on the unit {re.escape(repr(unit_name))} is not zero$"):
                S.set_anchor(2, (0,), base.unit, value)
            refused += 1
            S.set_anchor(2, (0,), base.unit, base.zero())  # a zero value is no entry
            assert ((0,), base.unit) not in S.anchors.get(2, {})
    assert structures == 36
    assert flagged > 0 and refused > 0, (flagged, refused)


def oracle_leibniz_residual(S, n):
    """The anchor Leibniz defect evaluated bracket by bracket, on every sorted
    generator tuple and basis element a:

        {g_1..g_{n-1}, a.g_n} - {g_1..g_{n-1}|a}.g_n
                              - (-1)^{|a|(|g_1|+..+|g_{n-1}|+1)} a.{g_1..g_n}."""
    carrier = S.carrier
    base = S.base
    out = {}
    for key in itertools.combinations_with_replacement(range(carrier.rank), n):
        degs = [carrier.degrees[i] for i in key]
        gens = [carrier.generator(i) for i in key]
        on_gens = S.bracket(n, gens)
        for b in range(base.dim):
            a = base.basis_element(b)
            scaled = gens[-1].a_mul(a)
            lhs = S.bracket(n, gens[:-1] + [scaled])
            anchor_coeff = S.anchor(n, gens[:-1], a)
            mid = ModuleElement(carrier, {key[-1]: anchor_coeff})
            rhs = on_gens.a_mul(a).scale(sign_scalar(base.degrees[b] * (sum(degs[:-1]) + 1)))
            residual = lhs - mid - rhs
            if not residual.is_zero():
                out[(key, b)] = residual
    return out


def _result_or_refusal(residual, S, n):
    try:
        return residual(S, n)
    except KitError as err:
        return f"{type(err).__name__}: {err}"


def test_leibniz_residual_matches_the_bracket_oracle():
    """The bracket-by-bracket residual is empty, or the same refusal, at
    every arity up to one above the anchor cap: on the shipped fixtures and
    on drawn structures with derivation or free anchors, whose bracket cap
    may be below the unary arity, and on a carrier of rank 0.  An arity over
    the bracket cap is refused even where the oracle evaluates no bracket
    (the unary arity, a carrier with no tuple): the one rule of
    ``AlgebroidStructure.refuse_over_cap``."""
    from algebroidkit.cli import _structure_of
    from algebroidkit.modelio import parse_model

    fixtures = sorted(FIXTURES.glob("*.json"))
    assert len(fixtures) == 8
    structures = [_structure_of(parse_model(path.read_text())) for path in fixtures]
    base = lambda_eps()
    structures.append(AlgebroidStructure(base, FreeModule(base, []), bracket_cap=2))
    rng = Rng(39)
    for base, derivation_anchors, cap, _ in itertools.product(
        sample_bases(), (True, False), (4, 3, 2, 0), range(3)
    ):
        carrier = mixed_module(base, rng.choice(CE_DEGREES), seed=rng.randint(0, 4))
        structures.append(random_algebroid(rng, base, carrier, cap, derivation_anchors=derivation_anchors))
    seen = {"empty": 0, "bracket": 0}
    for S in structures:
        for n in range(1, S.anchor_cap + 2):
            want = _result_or_refusal(oracle_leibniz_residual, S, n)
            if n > S.bracket_cap:
                want = f"CapError: bracket arity {n} exceeds cap {S.bracket_cap}"
            assert _result_or_refusal(leibniz_residual, S, n) == want, (S.base.names, n)
            if isinstance(want, str):
                seen[want.split()[1]] += 1
            else:
                assert want == {}, (S.base.names, n)
                seen["empty"] += 1
    assert all(seen.values()), seen


def test_bracket_with_odd_coefficients_is_graded_symmetric():
    """{a_1 g_1, a_2 g_2, a_3 g_3} with an odd coefficient in every slot obeys
    the Koszul sign of every permutation of its arguments, so the anchor
    terms of the Leibniz rule see each pulled-out coefficient exactly once."""
    base = exterior_base([("x", 1), ("y", 1), ("z", 1)])
    odd = [b for b in range(base.dim) if base.degrees[b] % 2]
    permutations = [Permutation(images) for images in itertools.permutations((1, 2, 3))][1:]
    checked = 0
    for seed in range(3):
        carrier = mixed_module(base, [0, 1, -1], seed=seed)
        S = random_algebroid(Rng(40 + seed), base, carrier)
        for gens in itertools.product(range(carrier.rank), repeat=3):
            for coeffs in itertools.product(odd, repeat=3):
                args = [
                    ModuleElement(carrier, {g: base.basis_element(b)})
                    for g, b in zip(gens, coeffs)
                ]
                degs = [carrier.degrees[g] + base.degrees[b] for g, b in zip(gens, coeffs)]
                value = S.bracket(3, args)
                if value.is_zero():
                    continue
                checked += 1
                for sigma in permutations:
                    permuted = S.bracket(3, [args[p - 1] for p in sigma.images])
                    assert permuted == value.scale(Scalar(sym_sign(sigma, degs))), (
                        seed, gens, coeffs, sigma
                    )
    assert checked > 0


# ---------------------------------------------------------------------------
# the bracket against the Leibniz peel it replaced
# ---------------------------------------------------------------------------


def peel_bracket(S, n, args):
    """{args}_n by peeling coefficients left to right: the leftmost non-unit
    slot is rotated to the last position with its Koszul sign and the
    Leibniz rule applied there.  The oracle of ``AlgebroidStructure.bracket``."""
    if len(args) != n:
        raise KitError("bracket arity does not match argument count")
    if n == 1:
        return args[0].d()
    if n > S.bracket_cap:
        raise CapError(f"bracket arity {n} exceeds cap {S.bracket_cap}")
    terms_per_arg = [
        [(c, b, i) for i, a in v.items() for b, c in a.items()] for v in args
    ]
    total = S.carrier.zero()
    for terms in itertools.product(*terms_per_arg):
        scal = Scalar.one()
        for c, _, _ in terms:
            scal = scal * c
        total = total + _peel_slots(S, n, [(b, i) for _, b, i in terms]).scale(scal)
    return total


def _peel_slots(S, n, slots):
    """slots = [(coefficient basis index, generator index)] with scalars out."""
    base = S.base
    carrier = S.carrier
    unit = base.unit

    def slot_degree(slot):
        b, i = slot
        return base.degrees[b] + carrier.degrees[i]

    composite = [k for k, (b, _) in enumerate(slots) if b != unit]
    if not composite:
        table = S.brackets.get(n)
        got = table.lookup(tuple(i for _, i in slots)) if table else None
        return carrier.zero() if got is None else got
    k = composite[0]
    tail = slots[k + 1 :]
    exponent = slot_degree(slots[k]) * sum(slot_degree(s) for s in tail)
    reordered = slots[:k] + tail + [slots[k]]
    b, g = reordered[-1]
    head = reordered[:-1]
    head_degree = sum(slot_degree(s) for s in head)
    head_args = [ModuleElement(carrier, {gh: base.basis_element(bh)}) for bh, gh in head]
    term1 = ModuleElement(carrier, {g: S.anchor(n, head_args, base.basis_element(b))})
    term2 = _peel_slots(S, n, head + [(unit, g)]).a_mul(base.basis_element(b)).scale(
        sign_scalar(base.degrees[b] * (head_degree + 1))
    )
    return (term1 + term2).scale(sign_scalar(exponent))


def _outcome(f, *args):
    try:
        return f(*args)
    except CapError as err:
        return f"CapError: {err}"


@given(
    base_index=st.integers(0, 2),
    degrees=st.sampled_from([[0], [0, 1], [1, -1], [0, -1, 0], [1], [2, 1]]),
    derivation_anchors=st.booleans(),
    bracket_cap=st.sampled_from([4, 2]),
    seed=st.integers(0, 2**16),
)
def test_bracket_matches_the_leibniz_peel(base_index, degrees, derivation_anchors, bracket_cap, seed):
    """The closed form equals the peel on inhomogeneous arguments of arity
    1-4, or both refuse the arity over the bracket cap."""
    rng = Rng(seed)
    base = sample_bases()[base_index]
    carrier = mixed_module(base, degrees, seed=seed % 5)
    S = random_algebroid(
        rng, base, carrier, bracket_cap=bracket_cap, derivation_anchors=derivation_anchors
    )
    for n in range(1, 5):
        for _ in range(4):
            args = [rng.module_element(carrier, zero_chance=0.6) for _ in range(n)]
            want = _outcome(peel_bracket, S, n, args)
            assert _outcome(S.bracket, n, args) == want, (n, args)


# ---------------------------------------------------------------------------
# the CE dictionary against the evaluation bodies it replaced
# ---------------------------------------------------------------------------


def oracle_ce_differential(S, weight_cap):
    """``ce_differential`` by evaluation: every word value is S.anchor or
    S.bracket on its generators, turned into words by ``from_values``."""
    carrier = S.carrier
    base = S.base
    algebra = SymAlgebra.over_module(carrier, cap=weight_cap)
    W = weight_cap
    on_algebra = {}
    for b in range(base.dim):
        val = algebra.scalar(base.differential_basis(b))
        deg_b = base.degrees[b]
        for n in range(1, W + 1):
            if n + 1 > S.anchor_cap:
                break

            def value_fn(word, gens, b=b, n=n, deg_b=deg_b):
                total_deg = sum(carrier.degrees[i] for i in word)
                return S.anchor(n + 1, gens, base.basis_element(b)).scale(sign_scalar(deg_b * total_deg))

            val = val + from_values(algebra, carrier, n, value_fn)
        if not val.is_zero():
            on_algebra[b] = val
    on_letters = {}
    for i in range(algebra.n_letters):
        eta_degree = -carrier.degrees[i]
        val = algebra.zero()
        for n in range(0, W):
            if n >= 1 and n + 1 > S.bracket_cap:
                break

            def value_fn(word, gens, i=i, n=n, eta_degree=eta_degree):
                degs = [carrier.degrees[g] for g in word]
                total = base.zero()
                for k in range(len(gens)):
                    eta_vk = pair_dual(carrier, i, gens[k])
                    if eta_vk.is_zero() or n + 1 > S.anchor_cap:  # no anchor above its cap
                        continue
                    theta = eta_degree * (sum(degs) - degs[k]) + degs[k] * sum(degs[k + 1 :])
                    rest = gens[:k] + gens[k + 1 :]
                    total = total + S.anchor(n + 1, rest, eta_vk).scale(sign_scalar(theta))
                bracket_val = S.bracket(n + 1, gens)
                return total + pair_dual(carrier, i, bracket_val).scale(sign_scalar(eta_degree + 1))

            val = val + from_values(algebra, carrier, n + 1, value_fn)
        if not val.is_zero():
            on_letters[i] = val
    return DerivationD(algebra, on_algebra, on_letters)


def oracle_extract_structure(D, carrier, bracket_cap):
    """``extract_structure`` by evaluating the components of D on every
    generator tuple (``_evaluate_parts``)."""
    algebra = D.algebra
    base = algebra.base
    S = AlgebroidStructure(base, carrier, bracket_cap=bracket_cap)

    def component_parts(component, n, count):
        parts = {i: component(n, i).homogeneous_parts() for i in range(count)}
        return {i: p for i, p in parts.items() if p}

    for n in range(2, S.anchor_cap + 1):
        if n - 1 > algebra.cap:
            break
        on_algebra = component_parts(D.component_on_algebra, n - 1, base.dim)
        for key in _nonvanishing_keys(carrier.degrees, n - 1):
            gens = [carrier.generator(i) for i in key]
            total_deg = sum(carrier.degrees[i] for i in key)
            for b, parts in on_algebra.items():
                value = _evaluate_parts(algebra, parts, gens, carrier).scale(
                    sign_scalar(base.degrees[b] * total_deg)
                )
                if not value.is_zero():
                    S.set_anchor(n, key, b, value)
    for n in range(2, bracket_cap + 1):
        if n > algebra.cap:
            break
        on_algebra = component_parts(D.component_on_algebra, n - 1, base.dim)
        on_letter = component_parts(
            lambda m, i: D.on_letters.get(i, algebra.zero()).weight_part(m + 1), n - 1, carrier.rank
        )
        for key in _nonvanishing_keys(carrier.degrees, n):
            gens = [carrier.generator(i) for i in key]
            degs = [carrier.degrees[i] for i in key]
            paired = {}
            for i in range(carrier.rank):
                first = base.zero()
                for k in range(n):
                    eta_vk = pair_dual(carrier, i, gens[k])
                    for b, c in eta_vk.items():
                        parts = on_algebra.get(b)
                        if parts is not None:
                            inner = _evaluate_parts(algebra, parts, gens[:k] + gens[k + 1 :], carrier)
                            first = first + inner.scale(c).scale(sign_scalar(degs[k] * sum(degs[:k])))
                parts = on_letter.get(i)
                second = _evaluate_parts(algebra, parts, gens, carrier) if parts is not None else base.zero()
                paired[i] = (first - second).scale(sign_scalar(-carrier.degrees[i]))
            value = from_dual_values(carrier, paired)
            if not value.is_zero():
                S.set_bracket(n, key, value)
    return S


def resorting_extract_structure(D, carrier, bracket_cap):
    """``extract_structure`` as it stored its values before it kept the
    words as keys: each through ``set_anchor`` / ``set_bracket``, which
    re-sort the key (``BracketTable.set``) and check the arity and the unit."""
    algebra = D.algebra
    base = algebra.base
    degrees = carrier.degrees
    S = AlgebroidStructure(base, carrier, bracket_cap=bracket_cap)
    anchors = _letter_transpose(algebra, D.on_algebra, base.degrees, [0] * base.dim, range(1, bracket_cap + 1))
    for w in sorted(anchors, key=lambda w: (len(w), w)):
        for b in sorted(anchors[w]):
            S.set_anchor(len(w) + 1, w, b, _summed(base, anchors[w][b]))
    values = _letter_transpose(algebra, D.on_letters, degrees, [d + 1 for d in degrees], range(2, bracket_cap + 1))
    for w in sorted(values, key=lambda w: (len(w), w)):
        value = ModuleElement(carrier, {i: _summed(base, sums) for i, sums in values[w].items()})
        if not value.is_zero():
            S.set_bracket(len(w), w, value)
    return S


CE_DEGREES = [[0], [0, 1], [1, -1], [0, -1, 0], [1], [2, 1], [0, 0]]


def drawn_algebroid(base_index, degrees, derivation_anchors, seed):
    rng = Rng(seed)
    base = sample_bases()[base_index]
    carrier = mixed_module(base, degrees, seed=seed % 5)
    return rng, random_algebroid(rng, base, carrier, derivation_anchors=derivation_anchors)


@given(
    base_index=st.integers(0, 4),
    degrees=st.sampled_from(CE_DEGREES),
    cap=st.integers(0, 4),
    seed=st.integers(0, 2**16),
)
def test_d0_matches_the_dual_differential_oracle(base_index, degrees, cap, seed):
    """d0, the arity-1 part of the CE dictionary, is d_A on coefficients and
    the dual of d_L letter by letter, at every weight cap, 0 included."""
    base = (sample_bases() + [exterior_base([("x", 1), ("y", 1)]), truncated_poly("u", 2, 3)])[base_index]
    module = mixed_module(base, degrees, seed=seed)
    alg = SymAlgebra.over_module(module, cap=cap)
    assert d0_derivation(alg, module) == oracle_d0_derivation(alg, module)


def _ce_entries(S):
    """The (word, index, value) entries that ``ce_differential(S)`` transposes
    on the base and on the letters, the arity-1 tables d_A and d_L first."""
    base, carrier = S.base, S.carrier
    on_algebra = [((), b, base.differential_basis(b)) for b in range(base.dim)]
    on_algebra += [(w, b, v) for t in S.anchors.values() for (w, b), v in t.items()]
    on_letters = [((j,), i, c) for j in range(carrier.rank) for i, c in carrier.differential_basis(j).items()]
    on_letters += [(w, i, c) for t in S.brackets.values() for w, v in t.items() for i, c in v.items()]
    return on_algebra, on_letters


def test_word_transpose_drops_the_words_over_the_cap():
    """``_word_transpose`` makes its elements from the table words as they
    are and drops a word over the cap by its own filter.  At cap 0, d0 and
    the CE differential of a structure with no stored table keep no letter
    word, though d_L is not zero, and a module with more generators than the
    algebra has letters is refused; on every shipped fixture, at its cap and
    two below, both slots equal the elements the SymElement constructor
    makes of the same words (``scalar_word_transpose``)."""
    base = nontrivial_dga()
    module = mixed_module(base, [0, 1], seed=2)
    assert all(not module.differential_basis(j).is_zero() for j in range(module.rank))
    alg = SymAlgebra.over_module(module, cap=0)
    D0 = d0_derivation(alg, module)
    assert D0.on_letters == {} and D0 == oracle_d0_derivation(alg, module)
    assert D0.on_algebra == {2: alg.scalar(base.differential_basis(2))}
    assert ce_differential(AlgebroidStructure(base, module), weight_cap=0) == D0
    with pytest.raises(BaseMismatch):  # a word of the module would name no letter
        d0_derivation(SymAlgebra(base, [("y", 0)], cap=1), module)
    dropped = 0
    for path in sorted(FIXTURES.glob("*.json")):
        model = parse_model(path.read_text())
        S = model if isinstance(model, AlgebroidStructure) else structure_from_geometry(model)
        on_algebra, on_letters = _ce_entries(S)
        degrees = S.carrier.degrees
        for cap in (S.bracket_cap, S.bracket_cap - 2):
            alg = SymAlgebra.over_module(S.carrier, cap=cap)
            for entries, degs, exponents in (
                (on_algebra, S.base.degrees, [0] * S.base.dim),
                (on_letters, degrees, [d + 1 for d in degrees]),
            ):
                want = scalar_word_transpose(alg, entries, degs, exponents)
                assert _word_transpose(alg, entries, degs, exponents) == want, (path.name, cap)
                dropped += sum(len(w) > cap for w, _, _ in entries)
    assert dropped >= 10, dropped


@given(
    base_index=st.integers(0, 2),
    degrees=st.sampled_from(CE_DEGREES),
    derivation_anchors=st.booleans(),
    weight_cap=st.integers(4, 5),
    seed=st.integers(0, 2**16),
)
def test_ce_differential_matches_the_evaluation_oracle(base_index, degrees, derivation_anchors, weight_cap, seed):
    _, S = drawn_algebroid(base_index, degrees, derivation_anchors, seed)
    assert ce_differential(S, weight_cap=weight_cap) == oracle_ce_differential(S, weight_cap)


@given(
    base_index=st.integers(0, 2),
    degrees=st.sampled_from(CE_DEGREES),
    derivation_anchors=st.booleans(),
    caps=st.sampled_from([(4, 4), (5, 4), (4, 3), (3, 2)]),
    seed=st.integers(0, 2**16),
)
def test_extract_structure_matches_the_evaluation_oracle(base_index, degrees, derivation_anchors, caps, seed):
    """On the CE differential of a drawn structure and on free random word
    data, at caps above and below the weight cap."""
    rng, S = drawn_algebroid(base_index, degrees, derivation_anchors, seed)
    weight_cap, bracket_cap = caps
    carrier, base = S.carrier, S.base
    D = ce_differential(S, weight_cap=4)
    free = random_ce_derivation(rng, base, carrier, cap=weight_cap)
    for derivation in (D, free):
        got = extract_structure(derivation, carrier, bracket_cap=bracket_cap)
        want = oracle_extract_structure(derivation, carrier, bracket_cap)
        assert structures_equal(got, want)
    assert structures_equal(extract_structure(D, carrier, bracket_cap=4), S)


def test_anchors_enter_only_the_base_values():
    """The letters of D read no anchor: the anchor term of D(eta_i) is the
    anchor on the unit, which vanishes.  So D(eta_i) is the same with the
    anchors of a drawn structure and without them, and the anchors enter D
    on the base elements, where ``extract_structure`` reads them back."""
    rng = Rng(43)
    anchored = 0
    for base, derivation_anchors in itertools.product(sample_bases(), (True, False)):
        carrier = mixed_module(base, [0, 1, -1], seed=3)
        S = random_algebroid(rng, base, carrier, derivation_anchors=derivation_anchors)
        bare = AlgebroidStructure(base, carrier)
        bare.brackets = S.brackets
        D, D_bare = ce_differential(S), ce_differential(bare)
        assert D.on_letters == D_bare.on_letters
        anchored += D.on_algebra != D_bare.on_algebra
        assert base.unit not in D.on_algebra
        assert structures_equal(extract_structure(D, carrier), S)
    assert anchored > 0


def test_extraction_refuses_a_nonzero_value_on_the_unit():
    """D(1) != 0 at a word within the anchor cap would be an anchor on the
    unit, which ``set_anchor`` refuses: no extraction sees it, as the
    derivation is refused first, naming the unit."""
    base = nontrivial_dga()
    carrier = mixed_module(base, [0, 1], seed=2)
    free = random_ce_derivation(Rng(44), base, carrier, cap=3)
    alg = free.algebra
    odd = next(b for b in range(base.dim) if base.degrees[b] == 1)
    on_algebra = dict(free.on_algebra)
    on_algebra[base.unit] = alg.letter(0, base.basis_element(odd))
    message = f"^derivation value on the unit {re.escape(repr(base.names[base.unit]))} is not zero$"
    for check in (True, False):
        with pytest.raises(KitError, match=message):
            DerivationD(alg, on_algebra, free.on_letters, check=check)


def test_brackets_at_the_bracket_cap_enter_the_ce_differential():
    """With bracket cap 4 at weight cap 4, every 4-ary bracket is a word of
    D(eta_i): the evaluation oracle and the round trip keep it."""
    rng = Rng(41)
    for base in sample_bases():
        carrier = mixed_module(base, [0, -1], seed=2)
        S = random_algebroid(rng, base, carrier, bracket_cap=4)
        assert S.brackets.get(4), base.names
        D = ce_differential(S, weight_cap=4)
        assert D == oracle_ce_differential(S, 4)
        assert extract_structure(D, carrier, bracket_cap=4) == S


def test_an_algebroid_stores_anchors_one_arity_above_its_bracket_cap():
    """One cap N: an anchor of arity N + 1 is stored, one of arity N + 2 is
    refused with the text of the anchor cap N + 1."""
    base = nontrivial_dga()
    carrier = mixed_module(base, [0, 1], seed=1)
    S = AlgebroidStructure(base, carrier, bracket_cap=3)
    x = base.index_of("x")
    e = base.from_names({"e": ONE})  # degree |g0 g0 g0| + |x| + 1 = 1
    S.set_anchor(4, (0, 0, 0), x, e)
    assert S.anchor_cap == 4 and S.anchors[4].lookup((0, 0, 0), x) == e
    assert S.anchor(4, [carrier.generator(0)] * 3, base.basis_element(x)) == e
    with pytest.raises(CapError, match="^anchor arity 5 outside 2..4$"):
        S.set_anchor(5, (0, 0, 0, 0), x, e)


def test_the_regression_model_of_the_anchor_residual_keeps_its_text():
    """The accepted model whose anchor residual differs from D^2, drawn with
    bracket cap 3, serializes to the text it had when drawn with bracket cap
    3 and anchor cap 4 spelled out."""
    base = nontrivial_dga()
    carrier = mixed_module(base, [1, -1, 0], seed=7)
    S = random_algebroid(Rng(1183), base, carrier, bracket_cap=3, derivation_anchors=True, density=0.9)
    text = serialize_model(S)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "816adc1c5785589cdfbce205ddad34fffeaa6fdd37becb3911bbc9d0a1fbe79b"
    )


# ---------------------------------------------------------------------------
# the Jacobi residual read off D^2 against the per-permutation sum
# ---------------------------------------------------------------------------


def oracle_algebroid_jacobi_residual(S, n):
    """Every unshuffle of ``AlgebroidStructure.bracket`` on its own, refused
    over the bracket cap."""
    if n > S.bracket_cap:
        raise CapError(f"bracket arity {n} exceeds cap {S.bracket_cap}")
    return oracle_jacobi_residual(S, n, True)


@given(
    base_index=st.integers(0, 2),
    degrees=st.sampled_from(CE_DEGREES),
    derivation_anchors=st.booleans(),
    cap=st.sampled_from([4, 3, 2, 0]),
    seed=st.integers(0, 2**16),
)
def test_jacobi_residual_matches_the_per_permutation_oracle(base_index, degrees, derivation_anchors, cap, seed):
    """The same residual, or the same refusal, at every arity up to one above
    the anchor cap, on drawn structures with derivation or free anchors and
    odd letters."""
    rng = Rng(seed)
    base = sample_bases()[base_index]
    carrier = mixed_module(base, degrees, seed=seed % 5)
    S = random_algebroid(rng, base, carrier, cap, derivation_anchors=derivation_anchors)
    for n in range(1, S.anchor_cap + 2):
        got = _result_or_refusal(lambda S, n: algebroid_jacobi_residual(S, [n])[n], S, n)
        assert got == _result_or_refusal(oracle_algebroid_jacobi_residual, S, n), n


def test_jacobi_residual_of_the_geometric_models_matches_the_oracle(workloads):
    """On the five geometric fixtures at their stored cap and at cap + 1 and
    on both generated benchmark models, all arities at once."""
    models = {}
    for path in sorted(FIXTURES.glob("*.geometric.json")):
        text = path.read_text()
        g = parse_model(text)
        models[f"{path.name}@W={g.cap}"] = g
        models[f"{path.name}@W={g.cap + 1}"] = parse_model(text, weight_override=g.cap + 1)
    for name in sorted(workloads.GENERATED):
        models[name] = parse_model(workloads.generate_model_text(name, 0))
    assert len(models) == 12
    failing = 0
    for name, g in models.items():
        S = structure_from_geometry(g)
        arities = range(1, S.bracket_cap + 1)
        got = algebroid_jacobi_residual(S, arities)
        assert got == {n: oracle_jacobi_residual(S, n, True) for n in arities}, name
        failing += any(got.values())
    assert failing > 0


def test_jacobi_refuses_an_arity_over_the_cap_before_any_work(monkeypatch):
    """Over the bracket cap, before D is built."""
    base = nontrivial_dga()
    empty = AlgebroidStructure(base, FreeModule(base, []), bracket_cap=4)
    assert algebroid_jacobi_residual(empty, [4]) == {4: {}}
    S = random_algebroid(Rng(42), base, mixed_module(base, [0, 1], seed=1), bracket_cap=4)

    def refuse(*args, **kwargs):
        raise AssertionError("work started on a refused arity")

    monkeypatch.setattr(algebroid, "ce_differential", refuse)
    with pytest.raises(CapError, match="^bracket arity 5 exceeds cap 4$"):
        algebroid_jacobi_residual(S, [2, 5])


def _fixture_derivations():
    """(name, D, carrier, bracket cap) of what ``ce-extract`` reads on every
    shipped fixture: the CE differential of an algebroid file, and the
    assembled differential of a geometric one."""
    for path in sorted(FIXTURES.glob("*.json")):
        model = parse_model(path.read_text())
        if isinstance(model, AlgebroidStructure):
            yield path.name, ce_differential(model, model.bracket_cap), model.carrier, model.bracket_cap
        else:
            yield path.name, build_frakD(model), model.normal, model.cap


def _same_stores(S1, S2) -> bool:
    """Equal structures whose tables hold their entries in the same order."""
    return S1 == S2 and all(
        [list(t.items()) for _, t in sorted(mine.items())] == [list(t.items()) for _, t in sorted(theirs.items())]
        for mine, theirs in ((S1.anchors, S2.anchors), (S1.brackets, S2.brackets))
    )


def test_extract_structure_stores_as_the_set_path_does():
    """The words are stored as keys as they are, with no re-sort, and give
    the structure that storing through ``set_anchor`` / ``set_bracket``
    gives, table by table and in the same order: on every fixture, at its
    cap and one below, and on free random word data with mixed parities."""
    stored = 0
    for name, D, carrier, cap in _fixture_derivations():
        for bracket_cap in (cap, cap - 1):
            got = extract_structure(D, carrier, bracket_cap=bracket_cap)
            assert _same_stores(got, resorting_extract_structure(D, carrier, bracket_cap)), (name, bracket_cap)
            stored += sum(len(t) for t in got.brackets.values())
    rng = Rng(47)
    for base_index, degrees in itertools.product(range(3), CE_DEGREES):
        base = sample_bases()[base_index]
        carrier = mixed_module(base, degrees, seed=base_index)
        free = random_ce_derivation(rng, base, carrier, cap=4, density=0.7)
        for bracket_cap in (2, 4):
            got = extract_structure(free, carrier, bracket_cap=bracket_cap)
            assert _same_stores(got, resorting_extract_structure(free, carrier, bracket_cap)), (degrees, bracket_cap)
            stored += sum(len(t) for t in got.brackets.values())
    assert stored > 100, stored


def test_extraction_refuses_a_carrier_whose_parities_are_not_the_letters():
    """A word is a canonical key of the carrier only when each generator has
    the parity of its letter: a carrier of the right rank but another parity
    is refused before any value is read; one of the same parities is read."""
    base = nontrivial_dga()
    carrier = mixed_module(base, [0, 1], seed=2)
    D = ce_differential(random_algebroid(Rng(45), base, carrier), weight_cap=4)
    for degrees in ([1, 1], [0, 2], [-1, 0]):
        other = FreeModule(base, [("h0", degrees[0]), ("h1", degrees[1])])
        with pytest.raises(BaseMismatch, match="^module generator degrees do not have the parities of the algebra"):
            extract_structure(D, other)
    shifted = FreeModule(base, [("h0", 2), ("h1", -1)])
    assert extract_structure(D, shifted).brackets.keys() == extract_structure(D, carrier).brackets.keys()


def test_each_transpose_computes_kappa_once_per_word(monkeypatch):
    """On rank2, each transpose of a ``ce_differential`` (the base values
    and the letters) and of an ``extract_structure`` (anchors and brackets)
    computes kappa(w) once for each distinct word it reads, not once per
    entry: its words are read at several letters or basis elements."""
    model = parse_model((FIXTURES / "rank2.geometric.json").read_text())
    S = structure_from_geometry(model)
    calls = []
    original = algebroid._word_constant
    monkeypatch.setattr(algebroid, "_word_constant", lambda alg, w: calls[-1].append(w) or original(alg, w))
    for name in ("_word_transpose", "_letter_transpose"):

        def opening(*args, transpose=getattr(algebroid, name)):
            calls.append([])
            return transpose(*args)

        monkeypatch.setattr(algebroid, name, opening)

    D = ce_differential(S, model.cap)
    entries = [[(w, i) for w, i, _ in slot if len(w) <= model.cap] for slot in _ce_entries(S)]
    assert [sorted(c) for c in calls] == [sorted({w for w, _ in slot}) for slot in entries]
    assert all(len(slot) > len(c) for slot, c in zip(entries, calls))

    calls.clear()
    extract_structure(D, S.carrier, bracket_cap=model.cap)
    read = [
        {w for v in D.on_algebra.values() for w, _ in v.items() if 1 <= len(w) <= model.cap},
        {w for v in D.on_letters.values() for w, _ in v.items() if 2 <= len(w) <= model.cap},
    ]
    assert [sorted(c) for c in calls] == [sorted(words) for words in read]
    for table, words in zip((D.on_algebra, D.on_letters), read):
        assert sum(w in words for v in table.values() for w, _ in v.items()) > len(words)
