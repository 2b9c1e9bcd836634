"""Homotopy Lie algebroids over a fixed dga and their Chevalley-Eilenberg duals.

An AlgebroidStructure stores, over a fixed base dga A and free carrier L:

* graded symmetric brackets  {v_1..v_n}_n  (n >= 2) of degree +1, stored in
  ``linfty.BracketTable``s (whose docstring states the storage rule) and
  extended through the anchor Leibniz rule

      {v_1..v_{n-1}, a.v_n} = {v_1..v_{n-1}|a}.v_n
                              + (-1)^{|a|(|v_1|+..+|v_{n-1}|+1)} a.{v_1..v_n},

  whose closed form ``bracket`` evaluates: the A-multilinear extension of
  the table (``modules.multilinear_extend``) plus one anchor term per
  non-unit coefficient;

* multi-anchors  {v_1..v_{n-1}|-}_n  (n >= 2) of degree +1, A-multilinear in
  the module slots and a derivation in the algebra slot, stored in tables
  keyed by (sorted generator tuple, basis element) pairs.  A derivation
  kills the unit, so a nonzero value on the unit is refused (``set_anchor``).

The unary operations are fixed by the dga: {|-}_1 = d_A, {.}_1 = d_L.  A
structure has one arity cap N: brackets stop at arity N and anchors at
arity N + 1, the arities that a CE cut at word weight N keeps.

``ce_differential`` packages a structure as a degree-1 derivation of the
truncated symmetric algebra over the dual generators:

    (D_n a)(v_1..v_n)   = (-1)^{|a|(|v_1|+..+|v_n|)} {v_1..v_n|a}_{n+1}
    (D_n eta)(v_1..v_{n+1}) = sum_i (-1)^theta {v_1.. ^v_i ..|eta(v_i)}_{n+1}
                              - (-1)^{|eta|} eta({v_1..v_{n+1}}_{n+1}),
    theta = |eta|(|v_1|+..+ ^|v_i| ..) + |v_i|(|v_{i+1}|+..+|v_{n+1}|)

and ``extract_structure`` inverts it.  Both are a key <-> word transpose:
on generators eta(v_i) is a multiple of the unit, which every anchor kills,
so each side of these formulas is one table entry, and a sorted
word w takes the value kappa(w) (``symtensor._word_constant``) on its own
generators and 0 on those of any other word, so every coefficient of D is
one bracket or anchor entry times a sign over kappa(w), and back.  The two
are exact mutual inverses on canonical tables.  D squares to zero exactly
when the tables form an L-infinity algebroid, and ``algebroid_jacobi_residual``
reads the higher Jacobi residuals off D^2 on the letters.

The dictionary is written once each way.  ``_word_transpose`` turns tables
into words: ``ce_differential`` for both slots, and ``d0_derivation``, the
arity-1 part, whose tables are d_A and d_L.  ``_letter_transpose`` reads
values off words: the anchors and brackets of ``extract_structure``, the
Jacobi residuals, and in ``geometry`` the curvature terms, the Shape, Gamma
and dhat rows of ``structure_from_geometry``.

``anchor_morphism_residual`` reads each term of the identity making the
anchors a structure morphism L[1] -> Der(A)[1] off the tables too.
"""

from __future__ import annotations

from typing import Container, Dict, Iterable, List, Mapping, Sequence, Tuple

from .algebra import AlgebraElement, BaseAlgebra, _add_product, _degree_problem, _element, _linear, _summed
from .errors import BaseMismatch, CapError, KitError
from .linfty import AlgebraDerivation, BracketTable, ShiftedDerDGLA, _unshuffles, same_tables, sorted_tuples
from .modules import FreeModule, ModuleElement, _koszul_twist, multilinear_extend
from .scalars import Scalar, Sums, _reduced_items
from .signs import _nonvanishing_keys
from .symtensor import (
    DerivationD,
    SymAlgebra,
    SymElement,
    _sym_element,
    _word_constant,
    # not called here: perfbench/test_perfbench.py checks that the tracer
    # wraps this import site of a public function
    from_values,  # noqa: F401
)

GenKey = Tuple[int, ...]

_module_element = ModuleElement._made


class AlgebroidStructure:
    """Brackets plus multi-anchors over a fixed dga; one side of the duality."""

    def __init__(self, base: BaseAlgebra, carrier: FreeModule, bracket_cap: int = 4):
        """Brackets up to arity bracket_cap, anchors up to bracket_cap + 1."""
        if carrier.base is not base:
            raise KitError("carrier must be a module over the given base")
        self.base = base
        self.carrier = carrier
        self.bracket_cap = bracket_cap
        self.anchor_cap = bracket_cap + 1
        self.brackets: Dict[int, BracketTable] = {}
        self.anchors: Dict[int, BracketTable] = {}

    # -- table management -----------------------------------------------------

    def set_bracket(self, n: int, key: Sequence[int], value: ModuleElement):
        if n < 2 or n > self.bracket_cap:
            raise CapError(f"bracket arity {n} outside 2..{self.bracket_cap}")
        self.brackets.setdefault(n, BracketTable(self.carrier.degrees)).set(key, value)

    def set_anchor(self, n: int, key: Sequence[int], basis_idx: int, value: AlgebraElement):
        """{key | e_basis_idx}_n = value; a nonzero value on the unit is refused,
        as an anchor is a derivation of the base and kills the unit."""
        if n < 2 or self.anchor_cap < n:
            raise CapError(f"anchor arity {n} outside 2..{self.anchor_cap}")
        if len(key) != n - 1:
            raise KitError("anchor key must have n-1 generators")
        if basis_idx == self.base.unit and not value.is_zero():
            raise KitError(f"anchor on the unit {self.base.names[basis_idx]!r} is not zero")
        self.anchors.setdefault(n, BracketTable(self.carrier.degrees)).set(key, value, basis_idx)

    # -- evaluation -------------------------------------------------------------

    def anchor(self, n: int, args: Sequence[ModuleElement], a: AlgebraElement) -> AlgebraElement:
        """{args | a}_n, A-multilinear in args and K-linear in a."""
        if len(args) != n - 1:
            raise KitError("anchor expects n-1 module arguments")
        if n == 1:
            return a.d()
        if self.anchor_cap < n:
            raise CapError(f"anchor arity {n} exceeds cap {self.anchor_cap}")
        table = self.anchors.get(n)
        if not table:
            return self.base.zero()
        degrees, zero = self.carrier.degrees, self.base.zero()
        return _linear(a, lambda b: multilinear_extend(lambda gens: table.lookup(gens, b), 1, args, degrees, zero))

    def anchor_derivation(self, n: int, key: GenKey) -> AlgebraDerivation:
        """alpha_{n-1}(key) as a concrete derivation of the base algebra; key is
        a sorted generator tuple."""
        table = self.anchors.get(n, {})
        return AlgebraDerivation(
            self.base, {b: table[(key, b)] for b in range(self.base.dim) if (key, b) in table}
        )

    def bracket(self, n: int, args: Sequence[ModuleElement]) -> ModuleElement:
        """K-multilinear evaluation: the closed form of the anchor Leibniz rule,

            {v_1..v_n} = (A-multilinear extension of the table)(v_1..v_n)
                         + sum_k sum_{a.g} {v_1..v_{k-1}, tau(v_{k+1})..tau(v_n) | a}.g,

        the inner sum running over the non-unit homogeneous coefficient parts
        a.g of v_k, and tau scaling the part of total degree e of a later
        argument by (-1)^{e(|a|+|g|)}: v_k is moved past the tail to the last
        slot, where the Leibniz rule splits off its coefficient.  The unit
        part of a coefficient adds no anchor term.
        """
        if len(args) != n:
            raise KitError("bracket arity does not match argument count")
        if n == 1:
            return args[0].d()
        self.refuse_over_cap((n,))
        carrier = self.carrier
        if any(v.is_zero() for v in args):
            # every term vanishes
            return carrier.zero()
        table = self.brackets.get(n)
        total = multilinear_extend(
            table.lookup if table else lambda gens: None, 1, args, carrier.degrees, carrier.zero()
        )
        base = self.base
        unit = base.unit
        for k, v in enumerate(args):
            tail = args[k + 1 :]
            twisted = None
            for g, a in v.items():
                rest = {b: c for b, c in a.items() if b != unit}
                if not rest:
                    continue
                for d, ha in AlgebraElement(base, rest).homogeneous_parts().items():
                    if (d + carrier.degrees[g]) % 2:
                        if twisted is None:
                            twisted = [_koszul_twist(w, 1) for w in tail]
                        later = twisted
                    else:
                        later = tail
                    anchor = self.anchor(n, list(args[:k]) + list(later), ha)
                    total = total + ModuleElement(carrier, {g: anchor})
        return total

    def __eq__(self, other) -> bool:
        """Same nonzero tables (arities, keys, coefficients); caps are not compared."""
        if not isinstance(other, AlgebroidStructure):
            return NotImplemented
        return same_tables(self.brackets, other.brackets) and same_tables(
            self.anchors, other.anchors
        )

    def max_bracket_arity(self) -> int:
        """The highest arity of a stored bracket, 0 when none is stored."""
        return max((n for n, t in self.brackets.items() if t), default=0)

    def max_anchor_arity(self) -> int:
        """The highest arity of a stored anchor, 0 when none is stored."""
        return max((n for n, t in self.anchors.items() if t), default=0)

    def refuse_over_cap(self, arities: Sequence[int]) -> None:
        """Refuse a bracket arity over the cap (CapError), before any work:
        the one rule of ``bracket`` and of the three residual families."""
        for n in arities:
            if n > self.bracket_cap:
                raise CapError(f"bracket arity {n} exceeds cap {self.bracket_cap}")

    # -- validation -------------------------------------------------------------------

    def degree_problems(self) -> List[str]:
        """Degree bookkeeping of the stored tables (structural validity)."""
        base = self.base
        degrees = self.carrier.degrees
        problems = [
            _degree_problem(f"bracket {n} at {key}", val, sum(degrees[i] for i in key) + 1)
            for n, table in self.brackets.items()
            for key, val in table.items()
        ] + [
            _degree_problem(
                f"anchor {n} at {key}|{base.names[b]}", val, sum(degrees[i] for i in key) + base.degrees[b] + 1
            )
            for n, table in self.anchors.items()
            for (key, b), val in table.items()
        ]
        return [p for p in problems if p]

    def validate(self) -> List[str]:
        problems: List[str] = list(self.degree_problems())
        for n, table in self.anchors.items():
            seen_keys = {key for key, _ in table}
            for key in seen_keys:
                defects = self.anchor_derivation(n, key).leibniz_defects()
                if defects:
                    problems.append(
                        f"anchor {n} at {key} is not a derivation: {defects[0]}"
                    )
        return problems


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg: structure -> derivation
# ---------------------------------------------------------------------------


def _word_transpose(
    alg: SymAlgebra,
    entries: Iterable[Tuple[GenKey, int, AlgebraElement]],
    degrees: Sequence[int],
    exponents: Sequence[int],
) -> Dict[int, SymElement]:
    """{i: element of alg}: the inverse of ``_letter_transpose``.  An entry
    (w, i, value) is the value that element i takes on the generators of the
    sorted word w, and its coefficient x e_b gives w the coefficient

        (-1)^{exponents[i] + |e_b| degrees[i]} x / kappa(w)

    in element i.  The twist (-1)^{|e_b| degrees[i]} is that of the product
    rule, and kappa(w) is an integer, so the unit times the value, summed by
    ``algebra._add_product``, gives each coefficient as one triple, reduced
    once.

    Every w is a canonical table key (``linfty.BracketTable``): a sorted
    word of alg that does not vanish.  So each element is made from its
    words as they are (``SymElement._made``), in word order; only a word
    over the cap of alg is dropped, and a zero value."""
    base, cap = alg.base, alg.cap
    out: Dict[int, Dict[GenKey, AlgebraElement]] = {}
    for w, i, value in entries:
        words = out.setdefault(i, {})
        if len(w) > cap:
            continue
        kappa = _word_constant(alg, w)
        sums: Sums = {}
        sign = -1 if (exponents[i] + (kappa < 0)) & 1 else 1
        _add_product(sums, base, base.unit, value.coeffs, degrees[i], sign, 0, abs(kappa))
        coeff = _summed(base, sums)
        if coeff.coeffs:
            words[w] = coeff
    return {i: _sym_element(alg, tuple(sorted(words.items()))) for i, words in out.items()}


def _ce_derivation(
    algebra: SymAlgebra, module: FreeModule, brackets: Iterable[Mapping], anchors: Iterable[Mapping]
) -> DerivationD:
    """The derivation whose words transpose the bracket tables {key: value}
    and anchor tables {(key, b): value} given and the arity-1 tables of the
    dga, {g_j}_1 = d_L g_j and {|e_b}_1 = d_A e_b; the letters of module
    are the first letters of algebra, refused if there are more of them
    (``_word_transpose`` makes its words without a check)."""
    if module.rank > algebra.n_letters:
        raise BaseMismatch("module generators do not match algebra letters")
    base, degrees = algebra.base, module.degrees
    anchors = [{((), b): base.differential_basis(b) for b in range(base.dim)}, *anchors]
    brackets = [{(j,): module.differential_basis(j) for j in range(module.rank)}, *brackets]
    on_algebra = ((w, b, v) for t in anchors for (w, b), v in t.items())
    on_letters = ((w, i, c) for t in brackets for w, v in t.items() for i, c in v.items())
    return DerivationD(
        algebra,
        _word_transpose(algebra, on_algebra, base.degrees, [0] * base.dim),
        _word_transpose(algebra, on_letters, degrees, [d + 1 for d in degrees]),
    )


def d0_derivation(algebra: SymAlgebra, module: FreeModule) -> DerivationD:
    """The differential induced by (d_A, d_L), the arity-1 part of the CE
    dictionary: d_A on coefficients, the dual of d_L on the letters."""
    return _ce_derivation(algebra, module, (), ())


def ce_differential(S: AlgebroidStructure, weight_cap: int = 4) -> DerivationD:
    """The degree-1 derivation encoding all brackets and anchors of S.

    Every coefficient is read off one table entry.  A word w evaluates to
    kappa(w) on its own generators (``symtensor._word_constant``) and to 0
    on those of any other word, so on generators the formulas of the module
    docstring give, for w of weight n,

        D(e_b)[w]   = (-1)^{|e_b||w|} {w | e_b}_{n+1} / kappa(w),
        D(eta_i)[w] = (-1)^{|eta_i|+1} eta_i({w}_n) / kappa(w):

    the anchor term of D(eta_i) reads the anchors on the unit, which vanish
    (``AlgebroidStructure.set_anchor``), so the letters read no anchor.  At
    arity 1 the tables are the dga's differentials (``d0_derivation``).
    ``_word_transpose`` twists a basis element e_c of an anchor value by
    (-1)^{|e_c||e_b|}, which is (-1)^{|e_b||w|} on a value of the anchor's
    degree |e_b| + |w| + 1: the degree check of ``DerivationD`` refuses any
    other.  A stored table over the weight cap is refused.
    """
    if S.max_bracket_arity() > weight_cap or S.max_anchor_arity() > weight_cap + 1:
        raise CapError(
            f"weight cap {weight_cap} too small for bracket arity "
            f"{S.max_bracket_arity()} / anchor arity {S.max_anchor_arity()}"
        )
    algebra = SymAlgebra.over_module(S.carrier, cap=weight_cap)
    return _ce_derivation(algebra, S.carrier, S.brackets.values(), S.anchors.values())


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg: derivation -> structure
# ---------------------------------------------------------------------------


# A coefficient table {index: coefficient sum (``scalars.Sums``)} holds one
# module or algebra value while its terms are summed; it becomes one
# ModuleElement or AlgebraElement when complete, each coefficient reduced once.
Coefficients = Dict[int, Sums]


def _letter_transpose(
    alg: SymAlgebra,
    table: Mapping[int, SymElement],
    degrees: Sequence[int],
    exponents: Sequence[int],
    weights: Container[int],
) -> Dict[GenKey, Coefficients]:
    """{word: {letter: {basis index: triple}}}: the module values that the
    words of table (table[i] paired with module generator i, of degree
    degrees[i]) take on the generators, for every word of a weight in weights.

    A word w takes the value kappa(w) on its own generators and 0 on those
    of any other word (``symtensor._word_constant``), so one pass over the
    stored words reads them: the coefficient x e_b of w in table[i] gives

        out[w][i][b] = (-1)^{exponents[i] + |e_b| degrees[i]} kappa(w) x,

    exponents[i] being the sign of the read at letter i and (-1)^{|e_b||g_i|}
    the Koszul twist of the dual pairing (``modules.pair_dual``) at the
    basis element e_b.  As in ``_word_transpose`` the unit times the value
    gives each entry as an unreduced triple, which the caller reduces once
    its sum is complete.
    """
    base = alg.base
    out: Dict[GenKey, Coefficients] = {}
    for i, el in table.items():
        degree = degrees[i]
        for w, c in el.items():
            if len(w) not in weights:
                continue
            sums = out.setdefault(w, {})[i] = {}
            kappa = _word_constant(alg, w)
            _add_product(sums, base, base.unit, c.coeffs, degree, -kappa if exponents[i] & 1 else kappa, 0, 1)
    return out


def _module_value(module: FreeModule, acc: Coefficients) -> ModuleElement:
    """The element of module with the coefficients of acc, each reduced once;
    the indices of acc are generators of module, so the element is made
    from its nonzero coefficients as they are (``Combination._made``)."""
    base = module.base
    pairs = []
    for i in sorted(acc):
        coeffs = _reduced_items(acc[i])
        if coeffs:
            pairs.append((i, _element(base, coeffs)))
    return _module_element(module, tuple(pairs))


def extract_structure(
    D: DerivationD,
    carrier: FreeModule,
    bracket_cap: int = 4,
) -> AlgebroidStructure:
    """Recover brackets and anchors from a degree-1 derivation: the inverse
    read of ``ce_differential``, one table entry per word.

    Requires D_0 to restrict to d_A on the base; the carrier must be the free
    module whose dual generators are the algebra letters.  With every word w
    times kappa(w),

        {w | e_b}_{n+1} = (-1)^{|e_b||w|} kappa(w) D(e_b)[w],
        eta_i({w}_n)    = (-1)^{|eta_i|+1} kappa(w) D(eta_i)[w].

    Both are read by ``_letter_transpose``: its twist (-1)^{|e_c||e_b|} of a
    basis element e_c of D(e_b)[w] is (-1)^{|e_b||w|}, as D has degree 1.
    D(1) would be read as the anchors on the unit; it is zero, as
    ``DerivationD`` refuses a value on the unit.
    """
    algebra = D.algebra
    base = algebra.base
    for b in range(base.dim):
        got = D.component_on_algebra(0, b)
        want = algebra.scalar(base.differential_basis(b))
        if got != want:
            raise KitError(
                f"weight-0 action on {base.names[b]} is not d_A; extraction undefined"
            )
    if carrier.rank != algebra.n_letters:
        raise BaseMismatch("module generators do not match algebra letters")
    S = AlgebroidStructure(base, carrier, bracket_cap=bracket_cap)
    degrees = carrier.degrees

    anchors = _letter_transpose(algebra, D.on_algebra, base.degrees, [0] * base.dim, range(1, bracket_cap + 1))
    for w in sorted(anchors, key=lambda w: (len(w), w)):
        for b in sorted(anchors[w]):
            S.set_anchor(len(w) + 1, w, b, _summed(base, anchors[w][b]))

    values = _letter_transpose(algebra, D.on_letters, degrees, [d + 1 for d in degrees], range(2, bracket_cap + 1))
    for w in sorted(values, key=lambda w: (len(w), w)):
        value = _module_value(carrier, values[w])
        if not value.is_zero():
            S.set_bracket(len(w), w, value)
    return S


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def algebroid_jacobi_residual(S: AlgebroidStructure, arities: Sequence[int]) -> Dict[int, Dict[GenKey, ModuleElement]]:
    """The higher Jacobi residuals {n: {sorted key: value}} at the given
    arities, read off the square of one D = ``ce_differential(S)``.

    D squares to zero exactly when S is an L-infinity algebroid: for a word w
    of weight n and each homogeneous part c of D^2(eta_i)[w], the transpose
    of the bracket term of ``ce_differential`` gives

        Jac_n(w)_i = -(-1)^{|g_i||c|} kappa(w) c,

    the symmetric unshuffle sum of ``bracket`` up to arity n.  An arity over
    the bracket cap is refused before any work
    (``AlgebroidStructure.refuse_over_cap``).
    """
    carrier = S.carrier
    S.refuse_over_cap(arities)
    out: Dict[int, Dict[GenKey, ModuleElement]] = {n: {} for n in arities}
    if not out:
        return out
    D = ce_differential(S, max(max(out), S.max_bracket_arity(), S.max_anchor_arity() - 1))
    # D(eta_i) is the stored value, as D kills the unit (``symtensor.square``)
    squares = {i: D.apply(v) for i, v in sorted(D.on_letters.items())}
    for w, values in _letter_transpose(D.algebra, squares, carrier.degrees, [1] * carrier.rank, out).items():
        out[len(w)][w] = _module_value(carrier, values)
    return out


def leibniz_residual(S: AlgebroidStructure, n: int) -> Dict[Tuple[GenKey, int], ModuleElement]:
    """Defect of the anchor Leibniz rule on generator tuples x basis elements:
    empty, as the rule holds by construction.

    ``bracket`` is defined by the same rule: {g_1..g_{n-1}, a.g_n} less the
    signed a.{g_1..g_n} is its last slot's anchor term at every non-unit
    basis element a, whether or not the anchors are derivations of the base
    (``validate`` decides that), and at the unit it is -{g_1..g_{n-1}|1}.g_n,
    which vanishes (``AlgebroidStructure.set_anchor``).  An arity over the
    bracket cap is refused as the bracket would refuse it
    (``AlgebroidStructure.refuse_over_cap``), though the anchor cap is one
    above it.
    """
    S.refuse_over_cap((n,))
    return {}


def anchor_morphism_residual(
    S: AlgebroidStructure, arities: Sequence[int]
) -> Dict[int, Dict[GenKey, AlgebraDerivation]]:
    """The defects {n: {sorted key: derivation}} of the anchors forming a
    structure morphism f: L[1] -> Der(A)[1], f_m(key) = {key | -}_{m+1}, at
    the given arities.  Over the unshuffles of key (``linfty._unshuffles``),
    first and rest its generators at sigma(1..i) and the others,

        Res_n(key) = sum alpha(sigma) sum_j a_j f_{n-i+1}(g_j, rest)
                     - l_1(f_n(key)) - sum' alpha(sigma) l_2(f(first), f(rest)),

    where {first}_i = sum_j a_j g_j is one bracket entry (d_L g at i = 1):
    f has degree 0, so a_j stands outside it.  sum' runs over the canonical
    unshuffles, one per split of key into two blocks, and l_1, l_2 are those
    of ``ShiftedDerDGLA``.  Unshuffles giving the same blocks of generators
    are counted with their signs and evaluated once.  An arity over the
    bracket cap is refused before any work: the identity's bracket at that
    arity would refuse it."""
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

    out: Dict[int, Dict[GenKey, AlgebraDerivation]] = {}
    for n in arities:
        residuals = out[n] = {}
        for key in sorted_tuples(carrier.rank, n):
            left: Dict[Tuple[GenKey, GenKey], int] = {}
            right: Dict[Tuple[GenKey, GenKey], int] = {}
            for first, rest, canonical, sign in _unshuffles(key, degrees):
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
