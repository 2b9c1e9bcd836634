"""Bracket evaluation on an ``LInftyAlgebra`` and the per-permutation Jacobi
sum: the oracles of the Jacobi residual that ``algebroid`` reads off the
square of the CE differential, and of ``linfty._unshuffle_sum``, over
``Permutation``s (``permutation_unshuffles``, the oracle of
``signs._unshuffle_splits``).  Also the general L-infinity morphism, its
structure-morphism residual over the canonical set partitions, and the
anchor morphism of an algebroid built on its own and read arity by arity
through them, and the closed form that sums its terms as derivations of the
base (``closed_form_anchor_morphism_residual``): the two oracles of
``algebroid.anchor_morphism_residual``.

The package keeps an L-infinity structure as its bracket tables only, which
is all the degree-shift dictionary reads; the evaluation of those tables on
elements lives here.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import Dict, Sequence, Tuple

from algebroidkit.errors import CapError, KitError
from algebroidkit.linfty import BracketTable, GenKey, ShiftedDerDGLA, _unshuffle_sum
from algebroidkit.modules import ModuleElement, multilinear_extend
from algebroidkit.scalars import MINUS_ONE, Scalar, sign_scalar
from algebroidkit.signs import Permutation, _nonvanishing_keys, skew_sign, sym_sign, unshuffles_with_tail


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
            perm = [p - 1 for p in sigma.images]
            if symmetric:
                exponent = 0 if sym_sign(sigma, degs) == 1 else 1
            else:
                exponent = i * (n - i) + (0 if skew_sign(sigma, degs) == 1 else 1)
            first = inner(i, [gens[p] for p in perm[:i]])
            term = outer(n - i + 1, [first] + [gens[p] for p in perm[i:]])
            total = total + term.scale(sign_scalar(exponent))
    return total


def permutation_unshuffles(key, degrees):
    """(first, rest, canonical, sign) of every sigma in Sh(i, n-i), i = 1..n,
    on key, made as ``Permutation``s: first is key at sigma(1..i), rest the
    others, sign alpha(sigma) on the degrees of key (``sym_sign``).  Of the
    two unshuffles that split key into the same two blocks of positions,
    canonical marks the one whose first block sorts first by (size, least
    position); i = n is not marked.  The oracle of
    ``signs._unshuffle_splits``."""
    n = len(key)
    degs = [degrees[g] for g in key]
    for i in range(1, n + 1):
        for sigma in unshuffles_with_tail(n, i):
            images = sigma.images
            args = tuple(key[p - 1] for p in images)
            canonical = i < n and (i, images[0]) < (n - i, images[i])
            yield args[:i], args[i:], canonical, sym_sign(sigma, degs)


def oracle_jacobi_residual(L, n, symmetric):
    """The higher Jacobi residual of L (anything with ``carrier`` and
    ``bracket``) at arity n on every sorted generator tuple:

        sum_{i=1..n} sum_{Sh(i,n-i)} sign(sigma) { {v_s(1)..v_s(i)}, v_s(i+1), ..., v_s(n) },

    sign as in ``per_permutation_unshuffle_sum``."""
    carrier = L.carrier
    out = {}
    for key in combinations_with_replacement(range(carrier.rank), n):
        degs = [carrier.degrees[i] for i in key]
        gens = [carrier.generator(i) for i in key]
        total = per_permutation_unshuffle_sum(degs, gens, L.bracket, L.bracket, carrier.zero(), symmetric)
        if not total.is_zero():
            out[key] = total
    return out


def linfty_jacobi_residual(L, n):
    """The Jacobi residual of an ``LInftyAlgebra`` in its own convention."""
    return oracle_jacobi_residual(LInftyBrackets(L), n, L.symmetric)


def canonical_partitions(n: int) -> list[Tuple[Tuple[int, ...], ...]]:
    """Unordered partitions of {1..n} into blocks, one representative each.

    Blocks are returned with ascending contents, ordered by (size, first
    element); this enumerates the unshuffle representatives appearing in the
    morphism identity exactly once per unordered partition.
    """
    items = list(range(1, n + 1))

    def rec(rest: list[int]):
        if not rest:
            yield ()
            return
        first = rest[0]
        others = rest[1:]
        for r in range(len(others) + 1):
            for rest_of_block in combinations(others, r):
                block = (first,) + rest_of_block
                remaining = [x for x in others if x not in rest_of_block]
                for tail in rec(remaining):
                    yield (block,) + tail

    parts = [tuple(sorted(p, key=lambda b: (len(b), b[0]))) for p in rec(items)]
    parts.sort()
    return parts


def partition_permutation(blocks: Sequence[Tuple[int, ...]]) -> Permutation:
    """The unshuffle whose image tuple is the blocks concatenated in order."""
    flat = tuple(x for block in blocks for x in block)
    return Permutation(flat)


class LInftyMorphism:
    """Degree-0 graded symmetric components f_n from a symmetric structure.

    The source is anything with a ``carrier`` and a ``bracket`` in the
    symmetric convention, such as an ``AlgebroidStructure``.
    Component values live in the target structure's element type: module
    elements for a module-carried target, concrete algebra derivations for
    the shifted derivation DGLA.
    """

    def __init__(self, source, target, zero_value):
        self.source = source
        self.target = target
        self.zero_value = zero_value
        self.tables: Dict[int, BracketTable] = {}

    def set_component(self, n: int, key: Sequence[int], value):
        table = self.tables.setdefault(n, BracketTable(self.source.carrier.degrees))
        table.set(key, value)

    def component(self, n: int, args: Sequence[ModuleElement]):
        table = self.tables.get(n)
        if table is None:
            return self.zero_value
        return multilinear_extend(
            table.lookup, 0, args, self.source.carrier.degrees, self.zero_value
        )


def morphism_residual(
    f: LInftyMorphism, L, target, n: int
) -> Dict[GenKey, object]:
    """Defect of the structure-morphism identity at total arity n.

    Left side: unshuffle sum feeding source brackets into components.
    Right side: canonical-partition sum feeding component blocks into the
    target brackets.  As in ``_unshuffle_sum``, partitions that give the same
    blocks of generators are counted with their signs and evaluated once;
    partitions into more blocks than ``target.max_bracket_arity()`` are
    skipped, as the target bracket vanishes on them.
    """
    carrier = L.carrier
    gens = [carrier.generator(i) for i in range(carrier.rank)]
    partitions = [
        (blocks, partition_permutation(blocks))
        for blocks in canonical_partitions(n)
        if len(blocks) <= target.max_bracket_arity()
    ]
    out: Dict[GenKey, object] = {}
    for key in combinations_with_replacement(range(carrier.rank), n):
        degs = [carrier.degrees[i] for i in key]
        lhs = _unshuffle_sum(key, carrier.degrees, gens, L.bracket, f.component, f.zero_value)
        counts: Dict[Tuple[GenKey, ...], int] = {}
        for blocks, sigma in partitions:
            group = tuple(tuple(key[x - 1] for x in b) for b in blocks)
            counts[group] = counts.get(group, 0) + sym_sign(sigma, degs)
        values: Dict[GenKey, object] = {}
        rhs = f.zero_value
        for group, count in counts.items():
            if not count:
                continue
            for block in group:
                if block not in values:
                    values[block] = f.component(len(block), [gens[g] for g in block])
            term = target.bracket(len(group), [values[block] for block in group])
            rhs = rhs + (term if count == 1 else term.scale(Scalar.rational(count)))
        residual = lhs + rhs.scale(MINUS_ONE)
        if not residual.is_zero():
            out[key] = residual
    return out


class DerTarget(ShiftedDerDGLA):
    """Der(A)[1] as a target of ``morphism_residual``: no bracket above l_2."""

    def max_bracket_arity(self) -> int:
        return 2


def anchor_morphism(S):
    """The anchor components of S as a morphism f into the shifted derivation
    DGLA: (f, target)."""
    target = DerTarget(S.base)
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


def closed_form_anchor_morphism_residual(S, arities):
    """The oracle of the row sums of ``algebroid.anchor_morphism_residual``:
    the same closed form, over every sorted tuple and the unshuffle
    permutations of ``permutation_unshuffles``, each term an
    ``AlgebraDerivation`` sum, l_1 and l_2 those of ``ShiftedDerDGLA``
    (commutators of homogeneous parts), the a_j f(g_j, rest) terms by
    ``a_mul``."""
    S.refuse_over_cap(arities)
    carrier, one = S.carrier, S.base.one()
    degrees, d_L = carrier.degrees, carrier.differential_basis
    target = ShiftedDerDGLA(S.base)
    zero = target.zero()
    f = {m: BracketTable(degrees) for m in range(1, S.anchor_cap)}
    for m, table in f.items():
        for key in _nonvanishing_keys(degrees, m):
            table.set(key, S.anchor_derivation(m + 1, key))

    def read(tables, gens, default):
        value = tables[len(gens)].lookup(gens) if len(gens) in tables else None
        return default if value is None else value

    out: Dict[int, Dict[GenKey, object]] = {}
    for n in arities:
        residuals = out[n] = {}
        for key in combinations_with_replacement(range(carrier.rank), n):
            left: Dict[Tuple[GenKey, GenKey], int] = {}
            right: Dict[Tuple[GenKey, GenKey], int] = {}
            for first, rest, canonical, sign in permutation_unshuffles(key, degrees):
                left[first, rest] = left.get((first, rest), 0) + sign
                if canonical:
                    right[first, rest] = right.get((first, rest), 0) + sign
            total = -target.bracket(1, [read(f, key, zero)])
            for (first, rest), count in left.items():
                if not count:
                    continue
                inside = read(S.brackets, first, carrier.zero()) if len(first) > 1 else d_L(first[0])
                for j, a in inside.items():
                    term = read(f, (j,) + rest, zero)
                    total = total + (term if a == one else term.a_mul(a)).scale(Scalar.rational(count))
            for (first, rest), count in right.items():
                if count:
                    term = target.bracket(2, [read(f, first, zero), read(f, rest, zero)])
                    total = total - term.scale(Scalar.rational(count))
            if not total.is_zero():
                residuals[key] = total
    return out
