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
reads the higher Jacobi residuals off D^2 on the letters.  The read of a
module value off letter words is written once, ``_letter_transpose``: the
brackets of ``extract_structure``, those residuals and the curvature terms
of ``geometry.structure_from_geometry`` all go through it.
"""

from __future__ import annotations

from typing import Container, Dict, List, Mapping, Sequence, Tuple

from .algebra import AlgebraElement, BaseAlgebra, _degree_problem
from .errors import BaseMismatch, CapError, KitError
from .linfty import (
    AlgebraDerivation,
    LInftyMorphism,
    ShiftedDerDGLA,
    BracketTable,
    morphism_residual,
    same_tables,
)
from .modules import FreeModule, ModuleElement, _koszul_twist, multilinear_extend
from .scalars import Scalar, sign_scalar
from .signs import _nonvanishing_keys
from .symtensor import (
    DerivationD,
    SymAlgebra,
    SymElement,
    _word_constant,
    # not called here: perfbench/test_perfbench.py checks that the tracer
    # wraps this import site of a public function
    from_values,  # noqa: F401
)

GenKey = Tuple[int, ...]


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
        total = self.base.zero()
        table = self.anchors.get(n)
        if not table:
            return total
        for b, c in a.items():
            val = multilinear_extend(
                lambda gens: table.lookup(gens, b),
                1,
                args,
                self.carrier.degrees,
                self.base.zero(),
            )
            total = total + val.scale(c)
        return total

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
        if n > self.bracket_cap:
            raise CapError(f"bracket arity {n} exceeds cap {self.bracket_cap}")
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
        return max((n for n, t in self.brackets.items() if t), default=1)

    def max_anchor_arity(self) -> int:
        return max((n for n, t in self.anchors.items() if t), default=1)

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


def _arity_tables(S: AlgebroidStructure, m: int):
    """(brackets, anchors) of arity m as ``{key: value}`` and ``{(key, slot): value}``
    maps; at arity 1 those of the dga, {g_j}_1 = d_L g_j and {|e_b}_1 = d_A e_b."""
    if m == 1:
        carrier, base = S.carrier, S.base
        return (
            {(j,): carrier.generator(j).d() for j in range(carrier.rank)},
            {((), b): base.differential_basis(b) for b in range(base.dim)},
        )
    return S.brackets.get(m, {}), S.anchors.get(m, {})


def _add_to(table: Dict, outer, inner, value: AlgebraElement) -> None:
    """table[outer][inner] += value."""
    slot = table.setdefault(outer, {})
    old = slot.get(inner)
    slot[inner] = value if old is None else old + value


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
    arity 1 the tables are the dga's differentials (``_arity_tables``):
    D(e_b) starts with d_A e_b and D(eta_i) with the dual of d_L.  D(eta_i)
    stops at weight min(W, bracket cap).
    """
    carrier = S.carrier
    base = S.base
    if S.max_bracket_arity() > weight_cap or S.max_anchor_arity() > weight_cap + 1:
        raise CapError(
            f"weight cap {weight_cap} too small for bracket arity "
            f"{S.max_bracket_arity()} / anchor arity {S.max_anchor_arity()}"
        )
    algebra = SymAlgebra.over_module(carrier, cap=weight_cap)
    W = weight_cap
    degrees = carrier.degrees

    on_algebra: Dict[int, Dict[GenKey, AlgebraElement]] = {}
    for m in range(1, min(W + 1, S.anchor_cap) + 1):
        for (key, b), value in _arity_tables(S, m)[1].items():
            exponent = base.degrees[b] * sum(degrees[i] for i in key)
            _add_to(on_algebra, b, key, value.scale(sign_scalar(exponent)))

    on_letters: Dict[int, Dict[GenKey, AlgebraElement]] = {}
    for m in range(1, min(W, max(1, S.bracket_cap)) + 1):
        for w, value in _arity_tables(S, m)[0].items():
            for i, c in value.items():
                _add_to(on_letters, i, w, _koszul_twist(c, degrees[i]).scale(sign_scalar(degrees[i] + 1)))

    def divided(table):
        return {
            i: SymElement(algebra, {w: a.scale(_word_constant(algebra, w).inverse()) for w, a in words.items()})
            for i, words in table.items()
        }

    return DerivationD(algebra, divided(on_algebra), divided(on_letters))


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg: derivation -> structure
# ---------------------------------------------------------------------------


# A coefficient table {index: {basis index: Scalar}} holds one module or
# algebra value while its terms are summed; it becomes one ModuleElement or
# AlgebraElement when complete.
Coefficients = Dict[int, Dict[int, Scalar]]


def _letter_transpose(
    alg: SymAlgebra,
    table: Mapping[int, SymElement],
    degrees: Sequence[int],
    exponents: Sequence[int],
    weights: Container[int],
) -> Dict[GenKey, Coefficients]:
    """{word: {letter: {basis index: Scalar}}}: the module values that the
    words of table (table[i] paired with module generator i, of degree
    degrees[i]) take on the generators, for every word of a weight in weights.

    A word w takes the value kappa(w) on its own generators and 0 on those
    of any other word (``symtensor._word_constant``), so one pass over the
    stored words reads them: the coefficient x e_b of w in table[i] gives

        out[w][i][b] = (-1)^{exponents[i] + |e_b| degrees[i]} kappa(w) x,

    exponents[i] being the sign of the read at letter i and (-1)^{|e_b||g_i|}
    the ``from_dual_values`` twist of the basis element e_b.
    """
    base_degrees = alg.base.degrees
    out: Dict[GenKey, Coefficients] = {}
    for i, el in table.items():
        degree = degrees[i]
        for w, c in el.data.items():
            if len(w) not in weights:
                continue
            scale = _word_constant(alg, w) * sign_scalar(exponents[i])
            out.setdefault(w, {})[i] = {
                b: -x * scale if base_degrees[b] * degree & 1 else x * scale for b, x in c.coeffs
            }
    return out


def _module_value(module: FreeModule, acc: Coefficients) -> ModuleElement:
    """The element of module with the coefficients of acc."""
    base = module.base
    return ModuleElement(module, {i: AlgebraElement(base, coeffs) for i, coeffs in acc.items()})


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

    D(1) is read as the anchors on the unit, so a D with D(1) != 0 (at an
    arity within the anchor cap) is refused there, by ``set_anchor``.
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

    anchors = []
    for b, el in D.on_algebra.items():
        for w, c in el.data.items():
            if 1 <= len(w) <= bracket_cap:
                scale = _word_constant(algebra, w) * sign_scalar(base.degrees[b] * sum(degrees[i] for i in w))
                anchors.append((len(w) + 1, w, b, c.scale(scale)))
    for n, w, b, value in sorted(anchors, key=lambda e: e[:3]):
        S.set_anchor(n, w, b, value)

    weights = range(2, min(bracket_cap, algebra.cap) + 1)
    values = _letter_transpose(algebra, D.on_letters, degrees, [d + 1 for d in degrees], weights)
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
    the bracket cap is refused before any work, as ``leibniz_residual``
    refuses it.
    """
    carrier = S.carrier
    for n in arities:
        if n > S.bracket_cap:
            raise CapError(f"bracket arity {n} exceeds cap {S.bracket_cap}")
    out: Dict[int, Dict[GenKey, ModuleElement]] = {n: {} for n in arities}
    if not out:
        return out
    D = ce_differential(S, max(max(out), S.max_bracket_arity(), S.max_anchor_arity() - 1))
    algebra = D.algebra
    squares = {i: D.apply(D.apply(algebra.letter(i))) for i in range(carrier.rank)}
    for w, values in _letter_transpose(algebra, squares, carrier.degrees, [1] * carrier.rank, out).items():
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
    bracket cap is refused as the bracket would refuse it; the anchor cap is
    one above it.
    """
    if S.carrier.rank and 1 < n and S.bracket_cap < n:
        raise CapError(f"bracket arity {n} exceeds cap {S.bracket_cap}")
    return {}


def anchor_morphism_residual(
    S: AlgebroidStructure, arities: Sequence[int]
) -> Dict[int, Dict[GenKey, AlgebraDerivation]]:
    """The defects {n: {sorted key: derivation}} of the anchors forming a
    structure morphism into Der(A)[1] at the given arities, all read off one
    morphism.  An arity over the bracket cap is refused before any work: the
    identity's bracket at that arity would refuse it."""
    for n in arities:
        if S.carrier.rank and n > S.bracket_cap:
            raise CapError(f"bracket arity {n} exceeds cap {S.bracket_cap}")
    target = ShiftedDerDGLA(S.base)
    f = LInftyMorphism(S, target, target.zero())
    for m in range(1, S.anchor_cap):
        for key in _nonvanishing_keys(S.carrier.degrees, m):
            der = S.anchor_derivation(m + 1, key)
            if not der.is_zero():
                f.set_component(m, key, der)
    return {n: morphism_residual(f, S, target, n) for n in arities}
