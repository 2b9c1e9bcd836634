"""Homotopy Lie structures on free modules and the shifted derivation DGLA.

``LInftyAlgebra`` stores the bracket tables of one homotopy Lie structure on a
free graded module in either sign convention, chosen by its ``symmetric`` flag:

* skew (the default): graded skew brackets l_n of degree 2-n (chi signs);
* symmetric: graded symmetric brackets ell_n of degree +1 (alpha signs),
  the shifted picture used everywhere downstream.

Brackets are stored in ``BracketTable``s, keyed by the word rule of
``signs`` (sorted tuples, with a Koszul sign); the unary bracket is always
the carrier differential.  The degree-shift dictionary (decalage) converts
between the two conventions with the sign

    {v_1..v_n} = (-1)^{(n-1)|v_1| + (n-2)|v_2| + ... + |v_{n-1}|} [v_1..v_n]

where degrees are taken in the unshifted module.  An algebroid's Jacobi
residual is read off its CE square (``algebroid.algebroid_jacobi_residual``).

``ShiftedDerDGLA.jacobi_residual`` and ``algebroid.anchor_morphism_residual``
walk the sorted tuples of ``signs._nonvanishing_keys`` and sum over the one
unshuffle enumeration, ``signs._unshuffle_splits``; ``_unshuffle_sum`` is
that sum on maps of elements.

An ``AlgebraDerivation`` of the base, an element of Der(A), is an
``algebra.Combination`` of its nonzero values: the pairs (i, P(e_i)).
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .algebra import AlgebraElement, BaseAlgebra, Combination, _leibniz_failures, _linear
from .errors import CapError, KitError
from .linalg import nullspace
from .modules import FreeModule, ModuleElement
from .scalars import ONE, Scalar, Sums, _add_multiple, _reduced_items, sign_scalar
from .signs import _nonvanishing_keys, _sort_word, _unshuffle_splits, _vanishes

GenKey = Tuple[int, ...]


# ---------------------------------------------------------------------------
# canonical bracket tables
# ---------------------------------------------------------------------------


def canonicalize_key(
    key: Sequence[int], degrees: Sequence[int], symmetric: bool
) -> Tuple[GenKey, Scalar, bool]:
    """Sort a generator tuple, returning (key, sign, vanishes).

    sign is the Koszul factor (ONE or MINUS_ONE) relating the value on the
    input order to the value on the sorted order: the sign of
    ``signs._sort_word``, times the signature of the sort in the skew
    convention.  vanishes marks tuples killed by the symmetry
    (``signs._vanishes``, see ``BracketTable``); their sign is not used.
    """
    if symmetric:
        merged = _sort_word(degrees, key)
        if merged is None:
            return tuple(sorted(key)), ONE, True
        return merged[0], sign_scalar(merged[1]), False
    word = tuple(sorted(key))
    exponent = sum([1 + degrees[a] * degrees[b] for a, b in combinations(key, 2) if a > b])
    return word, sign_scalar(exponent), _vanishes(word, degrees, False)


class BracketTable(dict):
    """One graded-symmetric (or skew) map on generator tuples, as the dict
    ``{canonical key: value}``.

    Every such map in the kit is stored this way: L-infinity brackets,
    algebroid brackets and multi-anchors, L-infinity morphism components and
    the alpha_n of ``structure_from_geometry``.  Keys follow the one word
    rule of ``signs`` (``_sort_word`` and ``_vanishes``), which the words of
    ``symtensor.SymAlgebra`` follow too.

    * Only sorted generator tuples are keys.  The value on any other order is
      the stored one times the Koszul sign of the sorting permutation (its
      parity included in the skew convention).
    * A tuple repeating an odd generator (an even one in the skew convention)
      vanishes: nothing is stored there, and a nonzero value is refused.
    * Zero values are not stored, so an empty table is the zero map.
    * An anchor table passes slot, the index of the algebra argument: its key
      is (canonical generator tuple, slot), and only the tuple is sorted.

    Values may be any type with ``scale`` and ``is_zero``.  Two tables are
    equal when they have the same keys and, per key, the same coefficients
    (``items()``), so tables over different carrier objects can compare equal.
    """

    __slots__ = ("degrees", "symmetric")

    def __init__(self, degrees: Sequence[int], symmetric: bool = True):
        super().__init__()
        self.degrees = degrees
        self.symmetric = symmetric

    def set(self, gens: Sequence[int], value, slot: Optional[int] = None):
        ckey, sign, vanishes = canonicalize_key(gens, self.degrees, self.symmetric)
        if vanishes:
            if not value.is_zero():
                raise KitError(f"value prescribed on a vanishing tuple {tuple(gens)}")
            return
        key = ckey if slot is None else (ckey, slot)
        stored = value.scale(sign)
        if stored.is_zero():
            self.pop(key, None)
        else:
            self[key] = stored

    def lookup(self, gens: Sequence[int], slot: Optional[int] = None):
        """The value on gens in the given order, or None where the map
        vanishes: the ``table_fn`` of ``modules.multilinear_extend``."""
        ckey, sign, vanishes = canonicalize_key(gens, self.degrees, self.symmetric)
        if vanishes:
            return None
        got = self.get(ckey if slot is None else (ckey, slot))
        if got is None or sign is ONE:
            return got
        return got.scale(sign)

    def __eq__(self, other) -> bool:
        if not isinstance(other, dict):
            return NotImplemented
        return self.keys() == other.keys() and all(
            v.items() == other[k].items() for k, v in self.items()
        )

    def __ne__(self, other) -> bool:  # dict.__ne__ would bypass __eq__
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq


def same_tables(t1: Mapping[int, Mapping], t2: Mapping[int, Mapping]) -> bool:
    """Equal tables arity by arity; an empty table equals a missing one."""
    return {n: t for n, t in t1.items() if t} == {n: t for n, t in t2.items() if t}


# ---------------------------------------------------------------------------
# the structure, in either sign convention
# ---------------------------------------------------------------------------


class LInftyAlgebra:
    """Bracket tables on a free module; l_1 = d_L.

    Skew brackets of degree 2-n by default; with symmetric=True, graded
    symmetric brackets of degree +1.
    """

    def __init__(self, carrier: FreeModule, arity_cap: int = 4, symmetric: bool = False):
        self.carrier = carrier
        self.arity_cap = arity_cap
        self.symmetric = symmetric
        self.tables: Dict[int, BracketTable] = {}

    def set_bracket(self, n: int, key: Sequence[int], value: ModuleElement):
        if n < 2 or n > self.arity_cap:
            raise CapError(f"bracket arity {n} outside 2..{self.arity_cap}")
        table = self.tables.setdefault(n, BracketTable(self.carrier.degrees, self.symmetric))
        table.set(key, value)


# ---------------------------------------------------------------------------
# unshuffle sums
# ---------------------------------------------------------------------------


def _unshuffle_sum(key: GenKey, degrees: Sequence[int], elements: Sequence, inner: Callable,
                   outer: Callable, zero):
    """sum_{i=1..n} sum_{Sh(i,n-i)} alpha(sigma) outer(n-i+1, [inner(i, first i), rest])

    on the generators of key (elements[g] of degree degrees[g] for the index
    g), over ``signs._unshuffle_splits``.  inner(k, args) and outer(k, args)
    are k-ary maps, in the symmetric convention.

    Where key repeats a generator, several unshuffles give the same argument
    tuple: their signs are added up first, and each tuple with a nonzero sum
    is evaluated once, times that sum.
    """
    n = len(key)
    counts, _ = _unshuffle_splits(n, degrees)(key)
    total = zero
    for (first, rest), count in counts.items():
        if count:
            inside = inner(len(first), [elements[g] for g in first])
            term = outer(n - len(first) + 1, [inside] + [elements[g] for g in rest])
            total = total + (term if count == 1 else term.scale(Scalar.rational(count)))
    return total


# ---------------------------------------------------------------------------
# decalage
# ---------------------------------------------------------------------------


def _shift_module(module: FreeModule, shift: int, name_suffix: str) -> FreeModule:
    shifted = FreeModule(
        module.base,
        [(name, deg - shift) for name, deg in zip(module.gen_names, module.degrees)],
        name=module.name + name_suffix,
    )
    shifted.set_differential(
        {
            i: ModuleElement(shifted, dict(module.differential_basis(i).items()))
            for i in range(module.rank)
            if not module.differential_basis(i).is_zero()
        }
    )
    return shifted


def _decalage_exponent(key: GenKey, degrees: Sequence[int]) -> int:
    n = len(key)
    return sum((n - pos) * degrees[i] for pos, i in enumerate(key, start=1))


def _shift_structure(L: LInftyAlgebra, shift: int, name_suffix: str) -> LInftyAlgebra:
    """Carry L to the module shifted by shift: +1 lands in the symmetric
    convention, -1 in the skew one."""
    shifted = _shift_module(L.carrier, shift, name_suffix)
    unshifted_degrees = L.carrier.degrees if shift == 1 else shifted.degrees
    out = LInftyAlgebra(shifted, arity_cap=L.arity_cap, symmetric=shift == 1)
    for n, table in L.tables.items():
        for key, val in table.items():
            exponent = _decalage_exponent(key, unshifted_degrees)
            new_val = ModuleElement(shifted, dict(val.items())).scale(sign_scalar(exponent))
            out.set_bracket(n, key, new_val)
    return out


def decalage(L: LInftyAlgebra) -> LInftyAlgebra:
    """Shift a skew structure to the symmetric picture on the shifted module."""
    return _shift_structure(L, 1, "[1]")


def decalage_inverse(L1: LInftyAlgebra) -> LInftyAlgebra:
    """Inverse dictionary: unshifted degrees are the shifted ones plus one."""
    return _shift_structure(L1, -1, "[-1]")


# ---------------------------------------------------------------------------
# derivations of the base algebra and the shifted DGLA
# ---------------------------------------------------------------------------


class AlgebraDerivation(Combination):
    """A graded K-linear map P: A -> A given by its nonzero values on the basis.

    As a ``Combination`` its keys are the basis indices i and its
    coefficients the values P(e_i), so a zero value is not stored and an
    index that names no basis element is refused.  The term of e_i has the
    degree |P(e_i)| - |e_i|, the degree of the map.  Whether it actually
    satisfies Leibniz is a property (``leibniz_defects``); the constructors
    used by the kit only produce genuine derivations.
    """

    __slots__ = ()
    base = Combination.space

    def _key_degree(self, i: int) -> int:
        return -self.base.degrees[i]

    def value_on(self, i: int) -> AlgebraElement:
        for k, v in self.coeffs:
            if k == i:
                return v
        return self.base.zero()

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        return _linear(a, dict(self.coeffs).get)

    def compose(self, other: "AlgebraDerivation") -> "AlgebraDerivation":
        values = ((i, self.apply(v)) for i, v in other.coeffs)
        return self._made(self.base, tuple(p for p in values if p[1].coeffs))

    def commutator(self, other: "AlgebraDerivation") -> "AlgebraDerivation":
        """[P, Q] = P Q - (-1)^{|P||Q|} Q P, computed per homogeneous part."""
        out = AlgebraDerivation(self.base, {})
        for dp, P in self.homogeneous_parts().items():
            for dq, Q in other.homogeneous_parts().items():
                out = out + P.compose(Q) + Q.compose(P).scale(sign_scalar(dp * dq + 1))
        return out

    def leibniz_defects(self) -> List[str]:
        names = self.base.names
        return [
            f"Leibniz fails on ({names[i]}, {names[j]}) in degree {part_deg}"
            for part_deg, P in self.homogeneous_parts().items()
            for i, j in _leibniz_failures(self.base, dict(P.coeffs), part_deg, lambda a: a)
        ]

    def __repr__(self) -> str:
        names = self.base.names
        return "AlgebraDerivation(" + "; ".join(f"{names[i]} -> {v}" for i, v in self.coeffs) + ")"


def d_A_derivation(base: BaseAlgebra) -> AlgebraDerivation:
    return AlgebraDerivation(
        base, {i: base.differential_basis(i) for i in range(base.dim)}
    )


def algebra_derivation_basis(base: BaseAlgebra, degree: int) -> List[AlgebraDerivation]:
    """Exact basis of the degree-k derivations of the base algebra."""
    dim, degrees = base.dim, base.degrees
    vars_ = [(i, j) for i in range(dim) for j in range(dim) if degrees[j] == degrees[i] + degree]
    if not vars_:
        return []
    var_index = {v: k for k, v in enumerate(vars_)}
    # the unknowns P(e_i)_j of each e_i, as (j, unknown index)
    unknowns = [[(j, var_index[(i, j)]) for j in range(dim) if (i, j) in var_index] for i in range(dim)]
    zero = Scalar.zero()
    rows: List[List[Scalar]] = []
    for i1 in range(dim):
        sign = -1 if degree * degrees[i1] & 1 else 1
        for i2 in range(dim):
            # P(e_i1 e_i2) - P(e_i1) e_i2 - (-1)^{k |e_i1|} e_i1 P(e_i2) = 0,
            # one linear equation per output basis component t; the column
            # of unknown k sums its coefficient in each, reduced once
            columns: Dict[int, Sums] = {}
            for m, c in base.product_basis(i1, i2).items():
                for j, k in unknowns[m]:
                    _add_multiple(columns.setdefault(k, {}), ((j, c),), 1, 0, 1)
            for j, k in unknowns[i1]:
                _add_multiple(columns.setdefault(k, {}), base.product_basis(j, i2).items(), -1, 0, 1)
            for j, k in unknowns[i2]:
                _add_multiple(columns.setdefault(k, {}), base.product_basis(i1, j).items(), -sign, 0, 1)
            equations: Dict[int, List[Scalar]] = {}
            for k, sums in columns.items():
                for t, c in _reduced_items(sums):
                    equations.setdefault(t, [zero] * len(vars_))[k] = c
            rows.extend(equations.values())
    # the reduced row echelon form of a row space is unique, so the basis
    # does not depend on the order of the equations
    basis_vectors = nullspace(rows, len(vars_))
    out = []
    for vec in basis_vectors:
        values: Dict[int, Dict[int, Scalar]] = {}
        for (i, j), k in var_index.items():
            if not vec[k].is_zero():
                values.setdefault(i, {})[j] = vec[k]
        out.append(
            AlgebraDerivation(
                base, {i: AlgebraElement(base, m) for i, m in values.items()}
            )
        )
    return out


class ShiftedDerDGLA:
    """Der(A)[1] as a symmetric-bracket structure on concrete derivations.

    ell_1(P) = [d_A, P];  ell_2(P, Q) = (-1)^{|P|} [P, Q]  (degrees in Der(A),
    i.e. unshifted); all higher brackets vanish.  Elements carry their shifted
    degree |P| - 1 in all alpha-sign bookkeeping.  The brackets act on any
    derivation, so the structure holds d_A only; an exact basis of Der(A) is
    solved for where it is read (``basis``).
    """

    def __init__(self, base: BaseAlgebra):
        self.base = base
        self.dA = d_A_derivation(base)

    def basis(self) -> List[Tuple[int, AlgebraDerivation]]:
        """(degree in Der(A), derivation) of an exact basis of Der(A), by degree."""
        lo, hi = self.base.degree_range()
        return [(k, der) for k in range(lo - hi, hi - lo + 1) for der in algebra_derivation_basis(self.base, k)]

    def zero(self) -> AlgebraDerivation:
        return AlgebraDerivation(self.base, {})

    def bracket(self, n: int, args: Sequence[AlgebraDerivation]) -> AlgebraDerivation:
        if n == 1:
            return self.dA.commutator(args[0])
        if n == 2:
            P, Q = args
            out = self.zero()
            for dp, Ppart in P.homogeneous_parts().items():
                out = out + Ppart.commutator(Q).scale(sign_scalar(dp))
            return out
        return self.zero()

    def jacobi_residual(self, n: int) -> Dict[GenKey, AlgebraDerivation]:
        """The Jacobi residual on the sorted tuples of basis derivations
        (``basis``) that repeat no odd one: on those, graded symmetric
        brackets leave none."""
        basis = self.basis()
        shifted = [k - 1 for k, _ in basis]
        elements = [der for _, der in basis]
        out: Dict[GenKey, AlgebraDerivation] = {}
        for key in _nonvanishing_keys(shifted, n):
            total = _unshuffle_sum(key, shifted, elements, self.bracket, self.bracket, self.zero())
            if not total.is_zero():
                out[key] = total
        return out
