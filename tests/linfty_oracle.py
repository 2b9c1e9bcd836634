"""Bracket evaluation on an ``LInftyAlgebra`` and the per-permutation Jacobi
sum: the oracles of the Jacobi residual that ``algebroid`` reads off the
square of the CE differential, and of ``linfty._unshuffle_sum``.  Also the
anchor morphism of an algebroid, built on its own and read arity by arity:
the oracle of ``algebroid.anchor_morphism_residual``.

The package keeps an L-infinity structure as its bracket tables only, which
is all the degree-shift dictionary reads; the evaluation of those tables on
elements lives here.
"""

from __future__ import annotations

from algebroidkit.errors import CapError, KitError
from algebroidkit.linfty import LInftyMorphism, ShiftedDerDGLA, morphism_residual, sorted_tuples
from algebroidkit.modules import multilinear_extend
from algebroidkit.scalars import sign_scalar
from algebroidkit.signs import _nonvanishing_keys, skew_sign, sym_sign, unshuffles_with_tail


class LInftyBrackets:
    """The brackets of an ``LInftyAlgebra`` on elements: l_1 = d_L and, above
    it, the A-multilinear Koszul extension of the tables, of degree 2-n
    (skew) or +1 (symmetric).  A source or target for ``morphism_residual``."""

    def __init__(self, L):
        self.carrier = L.carrier
        self.arity_cap = L.arity_cap
        self.symmetric = L.symmetric
        self.tables = L.tables

    def max_bracket_arity(self) -> int:
        return max((n for n, t in self.tables.items() if t), default=1)

    def bracket(self, n, args):
        if len(args) != n:
            raise KitError("bracket arity does not match argument count")
        if n == 1:
            return args[0].d()
        if n > self.arity_cap:
            raise CapError(f"arity {n} exceeds cap {self.arity_cap}")
        table = self.tables.get(n)
        if table is None:
            return self.carrier.zero()
        degree = 1 if self.symmetric else 2 - n
        return multilinear_extend(table.lookup, degree % 2, args, self.carrier.degrees, self.carrier.zero())


def per_permutation_unshuffle_sum(degs, gens, inner, outer, zero, symmetric):
    """The oracle of ``_unshuffle_sum``: every unshuffle evaluated on its own,
    with the sign alpha(sigma) (symmetric) or (-1)^{i(n-i)} chi(sigma) (skew)."""
    n = len(gens)
    total = zero
    for i in range(1, n + 1):
        for sigma in unshuffles_with_tail(n, i):
            perm = sigma.permute(list(range(n)))
            if symmetric:
                exponent = 0 if sym_sign(sigma, degs) == 1 else 1
            else:
                exponent = i * (n - i) + (0 if skew_sign(sigma, degs) == 1 else 1)
            first = inner(i, [gens[p] for p in perm[:i]])
            term = outer(n - i + 1, [first] + [gens[p] for p in perm[i:]])
            total = total + term.scale(sign_scalar(exponent))
    return total


def oracle_jacobi_residual(L, n, symmetric):
    """The higher Jacobi residual of L (anything with ``carrier`` and
    ``bracket``) at arity n on every sorted generator tuple:

        sum_{i=1..n} sum_{Sh(i,n-i)} sign(sigma) { {v_s(1)..v_s(i)}, v_s(i+1), ..., v_s(n) },

    sign as in ``per_permutation_unshuffle_sum``."""
    carrier = L.carrier
    out = {}
    for key in sorted_tuples(carrier.rank, n):
        degs = [carrier.degrees[i] for i in key]
        gens = [carrier.generator(i) for i in key]
        total = per_permutation_unshuffle_sum(degs, gens, L.bracket, L.bracket, carrier.zero(), symmetric)
        if not total.is_zero():
            out[key] = total
    return out


def linfty_jacobi_residual(L, n):
    """The Jacobi residual of an ``LInftyAlgebra`` in its own convention."""
    return oracle_jacobi_residual(LInftyBrackets(L), n, L.symmetric)


def anchor_morphism(S):
    """The anchor components of S as a morphism f into the shifted derivation
    DGLA: (f, target)."""
    target = ShiftedDerDGLA(S.base)
    f = LInftyMorphism(S, target, target.zero())
    for m in range(1, S.anchor_cap):
        for key in _nonvanishing_keys(S.carrier.degrees, m):
            der = S.anchor_derivation(m + 1, key)
            if not der.is_zero():
                f.set_component(m, key, der)
    return f, target


def oracle_anchor_morphism_residual(S, arities):
    """{n: morphism residual at n} of ``anchor_morphism(S)``, built once and
    read at each arity in turn, after the same refusal of an arity over the
    bracket cap."""
    for n in arities:
        if S.carrier.rank and n > S.bracket_cap:
            raise CapError(f"bracket arity {n} exceeds cap {S.bracket_cap}")
    f, target = anchor_morphism(S)
    return {n: morphism_residual(f, S, target, n) for n in arities}
