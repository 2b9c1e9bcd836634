"""Formal-neighborhood differential from finite curvature data.

A GeometricModel is a desk-scale stand-in for the Dolbeault data of a
submanifold sitting inside an ambient manifold: a base dga A (functions/forms
on the submanifold), free modules Tm and Nm (tangent and normal directions)
whose generator names are unique across both, and the input tensor families,
written in the split ambient frame and listed, one row each, in
``TENSOR_FAMILIES``: what each is indexed by, the letters and
bidegree of its values, its weights and its degree shift.  Parsing,
serialization, the constructor, the degree checks and the random generator
all read that table, and the constructor enforces it
(``geometric_degree_problems``), so a model is one a model file could
describe.  Every ambient-valued row has a tangent letter, so rule R (a
tangent letter in every nabla_hat value word) holds on every model.

The Rtan family is one map {p: tensor table} (``rtan_tables``): its
weight-one member Rtan_1 is the dual Kodaira-Spencer tensor beta, the
members p >= 2 are ``curv_tan``.

Everything operates on two truncated symmetric algebras: the ambient one over
the split frame (tangent letters first, then normal letters) and the normal
one over the normal letters alone.  Words carry a bidegree (p, q) = (number
of tangent letters, number of normal letters); P0 keeps (0, *) words, P1
keeps (1, *) words.

The substitution derivations of the ambient algebra (nabla_hat, nabla_perp,
Shape, beta-tilde = Rtan_1, Rtan = sum_p Rtan_p, which substitutes each
tangent letter by its whole Rtan family, and D1, nabla_hat cut to its
one-tangent-letter values) are built once, when the model is constructed.
The differentials are d0 of each module (``algebroid.d0_derivation``, the
arity-1 part of the Chevalley-Eilenberg dictionary): the ambient d0 is the
tangent d0 plus beta on the tangent letters and the normal d0 on the
normal ones.  The main constructions:

* ``nabla_bar``: symmetrized covariant derivative; the unnormalized
  substitution operator nabla_hat is a genuine degree-0 derivation and the
  1/m weighting is a per-word rescale of its output by the tangent-letter
  count.  The lemma checks read its cut D1 on generators instead, so no
  command calls it.
* the lemma checks (``retraction_residual``, ``commutator_lemma_residual``,
  ``transport_lemma_residual``): the two operator lemmas are identities
  between derivations, decided exactly on the generator grid elements and
  listed on the grid words with at most one tangent letter only where they
  fail, each residual a difference of two rows built where they are read
  and kept nowhere; no check applies an operator, and the rows decide the
  transport iterate by induction on its power.  This rests on rule R;
  after it the retraction is left with rho-dual o iota = id, which it
  decides on the normal generators.
* ``build_frakD``: the degree-1 derivation

      D = d0 + sum_{k>=2} Rperp_k + sum_{p>=1, q>=0} Rtan_p o Shape^q o nabla_perp

  on the normal algebra: Kapranov's d0 + sum_k Rperp_k (``build_kapranov``,
  the part the tangent tensors leave alone) plus each Rtan o Shape^q series
  read as the one substitution Rtan(sum_q Shape^q(start)), cut by the
  weight cap alone; its square is reported, never assumed.
* ``structure_from_geometry``: the recursive anchors/brackets

      alpha_1 = beta,   alpha_n = Rtan_n + sum_{Sh(n-1,1)} Shape o (alpha_{n-1} x 1) o sigma
      ell_n   = Rperp_n + sum_{Sh(n-1,1)} nabla_perp o (alpha_{n-1} x 1) o sigma

  one recursion step applied to the two (curvature family, contraction)
  pairs (Rtan, Shape) and (Rperp, nabla_perp), with every map read on
  generators off its stored words by ``algebroid._letter_transpose`` (the
  curvature families, and Shape, Gamma and dhat as rows on the tangent
  generators), and each alpha_n, ell_n and anchor value summed in one
  coefficient table.  The result is an
  AlgebroidStructure whose Chevalley-Eilenberg derivation coincides with
  ``build_frakD`` identically (the central duality check, valid whether or
  not D squares to zero).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .algebra import BaseAlgebra, _add_product, _degree_problem, _element, _leibniz_failures
from .algebroid import (
    AlgebroidStructure,
    Coefficients,
    _letter_transpose,
    _module_value,
    ce_differential,
    d0_derivation,
)
from .errors import BaseMismatch, DegreeError, KitError
from .linfty import BracketTable
from .modules import FreeModule, ModuleElement
from .scalars import Scalar, _add_multiple, _reduced_items
from .signs import _nonvanishing_keys
from .symtensor import (
    DerivationD,
    Row,
    SymAlgebra,
    SymElement,
    Triples,
    _normalized,
    _reduced_row,
    _row_element,
    _sym_element,
    generator_differences,
    # not called here: perfbench/test_perfbench.py checks that the tracer
    # wraps this import site of a public function
    evaluate,  # noqa: F401
)

Word = Tuple[int, ...]


# ---------------------------------------------------------------------------
# the tensor families
# ---------------------------------------------------------------------------


class TensorFamily(NamedTuple):
    """One family of input tensors: a table {index: value}, or one such table
    per weight.

    * name: the constructor keyword, the model attribute and the model-file key.
    * index: what a table is indexed by: "base" elements, "tangent" or
      "normal" letters.
    * values: the letters of the values: "ambient" (tangent, then normal) or
      "normal".
    * bidegree: (tangent, normal) letter counts of every word of a value; of
      a weighted family, at its least weight.
    * weighted: the family is a map {k: table} over weights k >= the least
      one, the words of weight k having bidegree (m, k - m).
    * shift: the degree of a value minus the degree of its index.
    """

    name: str
    index: str
    values: str
    bidegree: Tuple[int, int]
    weighted: bool
    shift: int

    @property
    def weight(self) -> int:
        """The weight of every value word (of a weighted family, the least)."""
        return sum(self.bidegree)

    @property
    def key(self) -> str:
        """The model-file field naming an entry's index."""
        return "basis" if self.index == "base" else "letter"


# nabla_hat substitutes the ambient-valued families: dhat on coefficients,
# conn_tan + shape for tangent letters, second_form + gamma for normal ones.
# Their bidegrees make it keep or raise the tangent-letter count of a word,
# and raise it from zero.
TENSOR_FAMILIES = (
    TensorFamily("dhat", "base", "ambient", (1, 0), False, 0),  # the (1,0)-differential of A
    TensorFamily("gamma", "normal", "ambient", (1, 1), False, 0),  # normal connection
    TensorFamily("beta", "tangent", "normal", (0, 1), False, 1),  # Kodaira-Spencer, Rtan_1
    TensorFamily("shape", "tangent", "ambient", (1, 1), False, 0),  # shape tensor
    TensorFamily("conn_tan", "tangent", "ambient", (2, 0), False, 0),  # tangent connection
    TensorFamily("second_form", "normal", "ambient", (2, 0), False, 0),  # second fundamental form
    TensorFamily("curv_perp", "normal", "normal", (0, 2), True, 1),  # Rperp_k, k >= 2
    TensorFamily("curv_tan", "tangent", "normal", (0, 2), True, 1),  # Rtan_p, p >= 2
)


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


class SplitFrame:
    """The letters of a geometric model, in its split frame: the ambient
    algebra over the tangent letters, then the normal ones, and the normal
    algebra over the normal letters alone, each letter named and graded as
    ``SymAlgebra.over_module`` does it.  What the model-file parser reads
    before any tensor is known."""

    def __init__(self, base: BaseAlgebra, tangent: FreeModule, normal: FreeModule, cap: int = 4):
        if tangent.base is not base or normal.base is not base:
            raise BaseMismatch("tangent and normal modules must live over the base")
        self.base = base
        self.tangent = tangent
        self.normal = normal
        self.cap = cap
        self.a = tangent.rank
        self.b = normal.rank
        tan = SymAlgebra.over_module(tangent, cap=cap)
        self.nor = SymAlgebra.over_module(normal, cap=cap)
        letters = zip(tan.letter_names + self.nor.letter_names, tan.letter_degrees + self.nor.letter_degrees)
        self.amb = SymAlgebra(base, list(letters), cap=cap)

    def index_set(self, fam: TensorFamily) -> Tuple[Sequence[str], Sequence[int]]:
        """Names and degrees of what fam's tables are indexed by; an index is
        a position in them."""
        if fam.index == "base":
            return self.base.names, self.base.degrees
        lo, hi = (0, self.a) if fam.index == "tangent" else (self.a, self.a + self.b)
        return self.amb.letter_names[lo:hi], self.amb.letter_degrees[lo:hi]

    def values_algebra(self, fam: TensorFamily) -> SymAlgebra:
        """The algebra fam's values live in."""
        return self.amb if fam.values == "ambient" else self.nor


class GeometricModel(SplitFrame):
    """Finite input tensors for the formal-neighborhood differential, written
    in the split frame: the ambient letters are the tangent letters, then the
    normal ones."""

    def __init__(
        self,
        base: BaseAlgebra,
        tangent: FreeModule,
        normal: FreeModule,
        cap: int = 4,
        closed_beta: bool = False,
        **tensors: Mapping,
    ):
        """tensors: a table {index: SymElement} per family of
        ``TENSOR_FAMILIES`` by its name, a map {k: table} for a weighted one;
        a missing family is zero.  A tensor that breaks its family's row is
        refused (``geometric_degree_problems``, the first three problems)."""
        super().__init__(base, tangent, normal, cap)
        self.closed_beta = closed_beta

        def over(fam: TensorFamily, table: Mapping[int, SymElement]) -> Dict[int, SymElement]:
            """The tensors of table over fam's values algebra; a flat family
            gets every index (zero where table has none)."""
            alg = self.values_algebra(fam)
            indices = range(len(self.index_set(fam)[0]))
            for i in table:
                if i not in indices:
                    kind = "elements" if fam.index == "base" else "letters"
                    raise KitError(
                        f"{fam.name} index {i!r} is out of range "
                        f"for {len(indices)} {fam.index} {kind}"
                    )
            out = {}
            for i in (table if fam.weighted else indices):
                el = table.get(i)
                if el is None:
                    out[i] = alg.zero()
                elif alg.compatible(el.algebra):
                    out[i] = el if el.algebra is alg else _sym_element(alg, el.coeffs)
                elif (
                    el.algebra.letter_names != alg.letter_names
                    or el.algebra.letter_degrees != alg.letter_degrees
                    or el.algebra.base is not base
                ):
                    raise BaseMismatch(f"tensor not expressed over the {fam.values} letters")
                else:  # another cap: the words over this one drop
                    out[i] = SymElement(alg, el.data)
            return out

        for fam in TENSOR_FAMILIES:
            given = tensors.pop(fam.name, None) or {}
            tables = {k: over(fam, t) for k, t in given.items()} if fam.weighted else over(fam, given)
            setattr(self, fam.name, tables)
        if tensors:
            raise TypeError(f"unknown tensor families {sorted(tensors)}")
        if 1 in self.curv_tan:
            raise KitError("curv_tan[1] is reserved: it is the beta tensor")
        if not self.dhat[base.unit].is_zero():  # dhat is a derivation: it kills the unit
            raise KitError(f"dhat on the unit {base.names[base.unit]!r} is not zero")
        problems = geometric_degree_problems(self)
        if problems:
            raise DegreeError("; ".join(problems[:3]))
        # the Rtan family over the normal letters: beta is its weight-one member
        self.rtan_tables = {1: self.beta, **self.curv_tan}

        # the substitution derivations, each built once.  The rows hold, so
        # the words of a value have its family's bidegree: a sum of values
        # of two families of other bidegrees, or of Rtan members of other
        # weights, has no word in both, and is one merge (``_merged``)
        a, amb = self.a, self.amb
        nabla_letters = {i: _merged(amb, self.conn_tan[i], self.shape[i]) for i in range(a)}
        nabla_letters.update({a + j: _merged(amb, self.second_form[j], self.gamma[j]) for j in range(self.b)})
        perp_letters = {a + j: self.gamma[j] for j in range(self.b)}
        self._nabla_hat = DerivationD(amb, self.dhat, nabla_letters, degree=0, check=False)
        self._nabla_perp = DerivationD(amb, self.dhat, perp_letters, degree=0, check=False)
        self._shape = DerivationD(amb, {}, self.shape, degree=0, check=False)
        # beta-tilde = Rtan_1 alone, and Rtan = sum_p Rtan_p: each tangent
        # letter substituted by its whole Rtan family at once
        beta = {i: self.to_amb(v) for i, v in self.beta.items()}
        self._beta_tilde = DerivationD(amb, {}, beta, degree=1, check=False)
        rtan_letters = {
            i: _merged(amb, v, *(self.to_amb(table[i]) for table in self.curv_tan.values() if i in table))
            for i, v in beta.items()
        }
        self._rtan = DerivationD(amb, {}, rtan_letters, degree=1, check=False)
        # D1: nabla_hat with every value cut to its one-tangent-letter words,
        # which by the rows are dhat (bidegree (1, 0)) and the shape and
        # gamma parts of the letter values; under rule R P1 nabla_bar is
        # P1 D1 on the words with at most one tangent letter
        self._d1 = DerivationD(amb, self.dhat, {**self.shape, **perp_letters}, degree=0, check=False)

    # -- the tensor families ----------------------------------------------------

    def weight_tables(self, fam: TensorFamily) -> Dict[int, Dict[int, SymElement]]:
        """fam's tables by weight: {k: table}."""
        tables = getattr(self, fam.name)
        return tables if fam.weighted else {fam.weight: tables}

    # -- bidegree helpers ----------------------------------------------------

    def tangent_count(self, word: Word) -> int:
        return sum(1 for i in word if i < self.a)

    def bidegree(self, word: Word) -> Tuple[int, int]:
        p = self.tangent_count(word)
        return p, len(word) - p

    def to_amb(self, el: SymElement) -> SymElement:
        if self.amb.compatible(el.algebra):
            return _sym_element(self.amb, el.coeffs)
        if not self.nor.compatible(el.algebra):
            raise BaseMismatch("element is over neither the ambient nor the normal algebra")
        # the normal letters keep their order and degrees after the tangent
        # ones, so the shifted words keep their order
        a = self.a
        return _sym_element(self.amb, tuple((tuple(a + i for i in w), c) for w, c in el.coeffs))

    def rho_dual(self, el: SymElement) -> SymElement:
        """The algebra-map extension of the normal projection: kills every
        word containing a tangent letter.

        Words are sorted with the tangent letters first, so the kept words are
        the empty one and those that start with a normal letter."""
        if not self.amb.compatible(el.algebra):
            raise BaseMismatch("element is not over the ambient algebra")
        a = self.a
        return _normalized(
            self.nor, {tuple(i - a for i in w): c for w, c in el.items() if not w or w[0] >= a}
        )

    # -- the substitution derivations ---------------------------------------------

    def nabla_bar(self, el: SymElement) -> SymElement:
        """Symmetrized covariant derivative with the 1/m output weighting:
        nabla_hat(el) with the coefficient of each word divided by its
        tangent-letter count m, which rule R makes at least 1."""
        out = {}
        for w, c in self._nabla_hat.apply(el).items():
            m = self.tangent_count(w)
            out[w] = c if m == 1 else c.scale(Scalar.rational(1, m))
        return _normalized(self.amb, out)

    def _d1_row(self, w: Word, i: int) -> Row:
        """P1 nabla_bar(e_i w) for a word w with at most one tangent letter."""
        return tuple((v, c) for v, c in self._d1._row(w, i) if self.tangent_count(v) == 1)

    def shape_tilde(self, el: SymElement) -> SymElement:
        """Shape-operator substitution on the single tangent letter."""
        return self._shape.apply(el)

    def beta_tilde(self, el: SymElement) -> SymElement:
        """Kodaira-Spencer substitution of the tangent letter by beta (Rtan_1)."""
        return self._beta_tilde.apply(el)

    def ambient_d0(self) -> DerivationD:
        """The ambient differential: d_A on coefficients, block-triangular on
        letters: the tangent d0 plus the Kodaira-Spencer tensor beta (the
        table, not beta-tilde, which the commutator lemma compares it with),
        then the normal d0."""
        tangent = d0_derivation(self.amb, self.tangent)
        zero = self.amb.zero()
        on_letters = {i: tangent.on_letters.get(i, zero) + self.to_amb(self.beta[i]) for i in range(self.a)}
        on_letters.update({self.a + j: self.to_amb(v) for j, v in self.normal_d0().on_letters.items()})
        return DerivationD(self.amb, tangent.on_algebra, on_letters, degree=1, check=False)

    def normal_d0(self) -> DerivationD:
        return d0_derivation(self.nor, self.normal)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def geometric_degree_problems(g: GeometricModel) -> List[str]:
    """Degree and bidegree bookkeeping of every stored tensor against its row
    of ``TENSOR_FAMILIES``.

    Each stored value is decided in one walk of its terms (``_fits_row``):
    every word has the weight of its table and, for an ambient-valued
    family, the family's tangent-letter count, and every term has the degree
    of the index plus the shift.  Only a value that fails is looked at
    again, to write its messages: its weights (normal-valued), its degree,
    then each word of another bidegree (ambient-valued).  A normal-valued
    tensor (Rperp_k, or Rtan_p with beta = Rtan_1) has only normal letters,
    so its bidegree is its weight; its degree is read on the normal algebra,
    whose letters have the degrees of the ambient normal letters.
    """
    problems: List[str] = []
    base_degrees = g.base.degrees
    for fam in TENSOR_FAMILIES:
        names, degrees = g.index_set(fam)
        letter_degrees = g.values_algebra(fam).letter_degrees
        m = fam.bidegree[0]
        tangents = m if fam.values == "ambient" else None
        for k, table in g.weight_tables(fam).items():
            if k < fam.weight:
                problems.append(f"{fam.name} arity {k} < {fam.weight}")
                continue
            for i, el in table.items():
                want = degrees[i] + fam.shift
                if _fits_row(el, k, tangents, g.a, letter_degrees, base_degrees, want):
                    continue
                index = names[i] if fam.index == "base" else i
                name = f"{fam.name}[{k}][{index}]" if fam.weighted else f"{fam.name}[{index}]"
                if fam.values == "normal" and el.weights() != [k]:
                    problems.append(f"{name} has weights {el.weights()}")
                problem = _degree_problem(name, el, want)
                if problem:
                    problems.append(problem)
                if fam.values == "ambient":
                    for w, _ in el.items():
                        if g.bidegree(w) != (m, k - m):
                            problems.append(f"{name} has a word of bidegree {g.bidegree(w)}")
    return problems


def _fits_row(
    el: SymElement, k: int, m: Optional[int], a: int, letter_degrees: Sequence[int], base_degrees: Sequence[int],
    want: int,
) -> bool:
    """Whether every word of el has weight k and, unless m is None, m
    tangent letters (sorted words put them first: those below a), and every
    term has degree want."""
    for w, c in el.coeffs:
        if len(w) != k or m is not None and bisect_left(w, a) != m:
            return False
        need = want - sum(map(letter_degrees.__getitem__, w))
        for j, _ in c.coeffs:
            if base_degrees[j] != need:
                return False
    return True


def validate_geometric_model(g: GeometricModel) -> List[str]:
    """What a model's rows leave to check: dhat obeys the Leibniz rule, and
    with ``closed_beta`` beta is closed.  The rows themselves hold on every
    model (the constructor refuses ``geometric_degree_problems``)."""
    base = g.base
    problems = [
        f"dhat violates Leibniz on ({base.names[i]}, {base.names[j]})"
        for i, j in _leibniz_failures(base, g.dhat, 0, g.amb.scalar)
    ]

    # optional: beta anticommutes with the differentials
    if g.closed_beta:
        D0n = g.normal_d0()
        dt = d0_derivation(g.amb, g.tangent).on_letters
        for i in range(g.a):
            residual = D0n.apply(g.beta[i]) + g.rho_dual(g.beta_tilde(dt.get(i, g.amb.zero())))
            if not residual.is_zero():
                problems.append(f"closed flag set but d(beta) != 0 at tangent letter {i}")
    return problems


# ---------------------------------------------------------------------------
# retraction and the two operator lemmas
# ---------------------------------------------------------------------------


# The three checks rest on rule R: every word of a nabla_hat value (dhat[b],
# conn_tan[i] + shape[i], second_form[j] + gamma[j]) has a tangent letter.
# Every ambient-valued row of ``TENSOR_FAMILIES`` has one in its bidegree
# and the constructor enforces the rows, so R holds on every model.  Let m
# count the tangent letters of a word.  Under R nabla_hat never lowers m and
# raises it from 0, so every residual vanishes on a grid word with m >= 2
# (the commutator's even without R: the ambient d0 maps such a word to words
# that keep a tangent letter), and the lemmas live on the words with m <= 1
# (``_slice``), each residual the difference of two rows (``_difference``).
# There P1 nabla_bar is P1 of the cut derivation D1 (``GeometricModel._d1``),
# P1 nabla_bar^s is P1 nabla_bar of P1 nabla_bar^(s-1), and P0 nabla_bar^s
# = 0: the rows of the slice are all that any power of nabla_bar reads there.
#
# Both lemmas are identities between derivations, so each is decided on the
# generator grid elements (``_generators``): e_b with the empty word, and
# each ambient letter with the unit coefficient.  The slice is walked only
# to list the residuals of a lemma that fails there (``_lemma_residual``).
# Zero on the generators is zero on the slice:
#
# * m = 0: the ambient d0 keeps such a word at m = 0 and D1 sends it to m = 1
#   words only, so the residual map is a derivation along rho-dual (the
#   commutator) or along the inclusion (the transport), fixed by its values
#   on the base basis and the normal letters.
# * m = 1, e_b t u with t the tangent letter: every other Leibniz term has a
#   second tangent letter, which rho-dual or P1 kills, or hits beta-tilde or
#   Shape, which vanish on the base and on the normal letters.  So the
#   residual of e_b t u is +-e_b R(t) u, R(t) the residual of the letter t.
# * truncation: a word dropped over the cap stays over it after any
#   multiplication.
#
# The walk reads each row once, so it builds the row where it reads it (a
# derivation's ``_row``) and keeps none.


def _grid(alg: SymAlgebra):
    """(word, basis index) of every grid element e_b w of alg up to its cap."""
    for r in range(alg.cap + 1):
        for w in alg.words_of_weight(r):
            for b in range(alg.base.dim):
                yield w, b


def _slice(g: GeometricModel):
    """(word, tangent-letter count m, basis index) of the ambient grid
    elements with m <= 1, in grid order."""
    a = g.a
    for w, b in _grid(g.amb):
        if len(w) < 2 or w[1] >= a:  # sorted: tangent letters come first
            yield w, (1 if w and w[0] < a else 0), b


def _generators(g: GeometricModel):
    """(word, tangent-letter count m, basis index) of the generator grid
    elements: e_b with the empty word for every basis index b, then each
    ambient letter with the unit coefficient."""
    for b in range(g.base.dim):
        yield (), 0, b
    a = g.a
    unit = g.base.unit
    for j in range(g.amb.n_letters):
        yield (j,), (1 if j < a else 0), unit


def _lemma_residual(
    g: GeometricModel, residual_at: Callable[[Word, int, int], Optional[SymElement]], prefix: str
) -> List[Tuple[str, SymElement]]:
    """The residuals of a lemma, residual_at(word, m, basis index) being its
    residual on one slice element (None where it vanishes): [] when it
    vanishes on every generator, else every nonzero residual of the slice,
    in slice order, labelled prefix + the grid element."""
    if all(residual_at(w, m, b) is None for w, m, b in _generators(g)):
        return []
    out = []
    for w, m, b in _slice(g):
        residual = residual_at(w, m, b)
        if residual is not None:
            out.append((f"{prefix}{_normalized(g.amb, {w: g.base.basis_element(b)})!r}", residual))
    return out


def _rho_row(a: int, row: Row) -> Row:
    """rho-dual of a row over the ambient letters: its words without tangent
    letters, relabelled to the normal letters (which keeps their order)."""
    return tuple((tuple(k - a for k in v), c) for v, c in row if not v or v[0] >= a)


def _difference(alg: SymAlgebra, left: Row, right: Row) -> Optional[SymElement]:
    """left - right as an element of alg, None where they agree.  Rows are
    canonical (sorted words, sorted nonzero coefficients), so equal rows are
    equal elements."""
    if left == right:
        return None
    acc: Triples = {}
    for sign, row in ((1, left), (-1, right)):
        for v, coeffs in row:
            _add_multiple(acc.setdefault(v, {}), coeffs, sign, 0, 1)
    return _row_element(alg, _reduced_row(acc))


def retraction_residual(g: GeometricModel) -> List[Tuple[str, SymElement]]:
    """rho-dual o pi-tilde - id on the normal algebra, as (generator,
    residual) pairs; empty when the retraction holds.

    Under rule R every nabla_bar iterate of a normal element has a tangent
    letter in each word, so rho-dual kills it, and what is left is
    rho-dual o iota = id, iota = ``to_amb``.  Both maps are algebra maps, so
    that is decided on the normal generators."""
    out = []
    for _, _, _, x in g.nor.generators():
        back = g.rho_dual(g.to_amb(x))
        if back != x:
            out.append((repr(x), back - x))
    return out


def commutator_lemma_residual(g: GeometricModel) -> List[Tuple[str, SymElement]]:
    """[rho-dual, d] - beta-tilde o P1 on an ambient spanning set.

    The left side commutes the normal projection with the ambient and normal
    differentials; the right side substitutes the stored Kodaira-Spencer
    tensor into the single-tangent-letter component.

    On a word with no tangent letter the residual is the rho-dual of its
    ambient d0 row minus its normal d0 row, on one with a single tangent
    letter the rho-dual of its ambient d0 row minus that of its beta-tilde
    row.

    Decided on the generators, and listed on the slice only where a
    generator row differs: on m = 0 words the residual is a derivation along
    rho-dual (the ambient d0 keeps them at m = 0), and on e_b t u it is
    +-e_b R(t) u, since rho-dual kills every other Leibniz term but those of
    u, and beta-tilde vanishes on the base and the normal letters.
    """
    D0a = g.ambient_d0()
    D0n = g.normal_d0()
    beta = g._beta_tilde
    a = g.a

    def residual_at(w: Word, m: int, b: int) -> Optional[SymElement]:
        left = _rho_row(a, D0a._row(w, b))
        right = D0n._row(tuple(k - a for k in w), b) if m == 0 else _rho_row(a, beta._row(w, b))
        return _difference(g.nor, left, right)

    return _lemma_residual(g, residual_at, "")


def transport_lemma_residual(g: GeometricModel) -> List[Tuple[str, SymElement]]:
    """P1 o nabla_bar = nabla_perp o P0 + shape o P1, and with it the iterate
    P1 nabla_bar^s = shape^(s-1) o nabla_perp on the normal algebra.

    On a word with no tangent letter the residual is its P1 D1 row minus its
    nabla_perp row, on one with a single tangent letter its P1 D1 row minus
    its shape row.  Only the left side is projected to P1.

    Decided on the generators, and listed on the slice only where a
    generator row differs: on m = 0 words the residual is a derivation along
    the inclusion (D1 sends them to m = 1 words only), and on e_b t u it is
    +-e_b R(t) u, since P1 kills every other D1 Leibniz term and Shape
    vanishes on the base and the normal letters.

    The rows decide the iterate: on a normal element P1 nabla_bar reads only
    P0 rows of D1, compared here with the nabla_perp rows, and every later
    power reads only one-tangent-letter rows (rule R), compared here with the
    shape rows.  So when no row differs the iterate holds for every s, by
    linearity and induction on s, and a failing iterate shows as a differing
    row.
    """

    def residual_at(w: Word, m: int, b: int) -> Optional[SymElement]:
        right = g._nabla_perp if m == 0 else g._shape
        return _difference(g.amb, g._d1_row(w, b), right._row(w, b))

    return _lemma_residual(g, residual_at, "operator @ ")


# ---------------------------------------------------------------------------
# the main differential and its Kapranov specialization
# ---------------------------------------------------------------------------


def _merged(alg: SymAlgebra, *parts: SymElement) -> SymElement:
    """The sum of elements of alg no two of which have a word in common:
    their terms, merged in word order."""
    return _sym_element(alg, tuple(sorted(chain.from_iterable(p.coeffs for p in parts), key=itemgetter(0))))


def _tangent_series(g: GeometricModel, start: SymElement) -> SymElement:
    """rho-dual of Rtan(sum_{q >= 0} Shape^q(start)), Rtan = sum_p Rtan_p.

    Rtan is linear, so the terms of start, Shape(start), Shape^2(start), ...
    are walked once through Rtan (``DerivationD._walk``) into one
    accumulator, unsummed: at most cap - 1 Shape applies and one Rtan walk
    per start, each coefficient reduced once."""
    if start.is_zero():
        return g.nor.zero()
    terms = list(start.items())
    current = start
    for _ in range(g.cap - 1):
        current = g.shape_tilde(current)
        if current.is_zero():
            break
        terms.extend(current.items())
    return g.rho_dual(_row_element(g.amb, _reduced_row(g._rtan._walk(terms))))


def _table_sum(left: Mapping[int, SymElement], right: Mapping[int, SymElement]) -> Dict[int, SymElement]:
    """{index: left + right} of two value tables, a missing value zero."""
    out = dict(left)
    for i, v in right.items():
        out[i] = out[i] + v if i in out else v
    return out


def build_kapranov(g: GeometricModel) -> DerivationD:
    """Kapranov's differential d0 + sum_k Rperp_k on the normal algebra: the
    part of ``build_frakD`` that the tangent tensors leave alone, and all of
    it in the diagonal regime.

    d0 is checked where it is built (``algebroid.d0_derivation``) and each
    Rperp_k value has the degree of its row, one more than its letter (the
    model refuses any other), so the sum has degree 1 on every generator
    and is not checked again."""
    D0 = g.normal_d0()
    on_letters = dict(D0.on_letters)
    for table in g.curv_perp.values():
        on_letters = _table_sum(on_letters, table)
    return DerivationD(g.nor, D0.on_algebra, on_letters, degree=1, check=False)


def build_frakD(g: GeometricModel) -> DerivationD:
    """The normal-direction differential: Kapranov's d0 + sum_k Rperp_k
    (``build_kapranov``) plus the two Rtan o Shape^q series, from dhat on the
    base and from Gamma on the normal letters.

    Both series stop at weight cap, where the algebra drops every longer
    word: Shape keeps the one tangent letter of a word and raises its weight
    by one, and Rtan_p replaces that letter by p normal letters.  So the
    series from dhat (weight-1 starts) keeps p + q <= cap, and the one from
    Gamma (weight-2 starts) keeps p + q <= cap - 1, with no bound of its
    own.

    The two series are checked where they are built, and the Kapranov part
    has degree 1 on every generator (``build_kapranov``): a sum of two such
    derivations has degree 1 there too, so the sum is not checked again."""
    kapranov = build_kapranov(g)
    series = DerivationD(
        g.nor,
        {b: _tangent_series(g, v) for b, v in g.dhat.items()},
        {j: _tangent_series(g, v) for j, v in g.gamma.items()},
        degree=1,
        check=True,
    )
    return DerivationD(
        g.nor,
        _table_sum(kapranov.on_algebra, series.on_algebra),
        _table_sum(kapranov.on_letters, series.on_letters),
        degree=1,
        check=False,
    )


# ---------------------------------------------------------------------------
# module-side transposes and the recursive structure
# ---------------------------------------------------------------------------


# The image of each tangent generator t_j under a map read on generators:
# {j: {index: coefficients}}, the coefficients of the value as the (basis
# index, Scalar) pairs of an AlgebraElement, each reduced once from the
# triples of ``algebroid._letter_transpose``.
GeneratorRows = Dict[int, Dict[int, Tuple[Tuple[int, Scalar], ...]]]


def _contraction_rows(
    g: GeometricModel, table: Mapping[int, SymElement], target: FreeModule, exponent: int
) -> Dict[int, GeneratorRows]:
    """{k: rows}: the (1,1)-contraction on (t_j, nu_k) of an ambient tensor
    table, table[i] being the image of target letter i, signed
    (-1)^exponent: its words (t_j nu_k) read by ``_letter_transpose``.

    Shape takes exponent 0: the anchor-recursion bookkeeping cancels every
    Koszul factor there.  Gamma (nabla^perp_V nu) takes 1, the -(-1)^{|eta|}
    bracket-recovery twist it shares with the Rperp transpose."""
    out: Dict[int, GeneratorRows] = {k: {} for k in range(g.b)}
    for (j, n), rows in _letter_transpose(g.amb, table, target.degrees, [exponent] * target.rank, (2,)).items():
        out[n - g.a][j] = {k: _reduced_items(sums) for k, sums in rows.items()}
    return out


def _dhat_rows(g: GeometricModel) -> GeneratorRows:
    """dhat e_b on t_j, signed (-1)^{|e_b| |t_j|} = (-1)^{|e_b| + |e_c||e_b|}
    at each basis element e_c of its value, of degree |e_b| + |t_j|."""
    base_degrees = g.base.degrees
    transposed = _letter_transpose(g.amb, g.dhat, base_degrees, base_degrees, (1,))
    return {j: {k: _reduced_items(sums) for k, sums in rows.items()} for (j,), rows in transposed.items()}


def _add_contraction(
    acc: Coefficients, base: BaseAlgebra, inner: ModuleElement, rows: GeneratorRows, factor: int
) -> None:
    """acc += factor sum_j a_j . rows[j] for inner = sum_j a_j t_j, factor an
    integer.

    This is the A-linear extension of a map read on generators: a one-slot
    map of operator degree 0 has Koszul exponent 0, so each coefficient a_j
    only multiplies the image of t_j from the left, basis element by basis
    element, through the one product rule (``algebra._add_product``)."""
    for j, a in inner.coeffs:
        row = rows.get(j)
        if row is None:
            continue
        for k, value in row.items():
            out = acc.get(k)
            if out is None:
                out = acc[k] = {}
            for i, x in a.coeffs:
                _add_product(out, base, i, value, 0, factor * x.n_re, factor * x.n_im, x.den)


def structure_from_geometry(g: GeometricModel) -> AlgebroidStructure:
    """Emit the recursive anchors and brackets of the model.

    alpha_1 = Rtan_1 = beta-transpose; for n >= 2
        alpha_n = Rtan_n + sum_{Sh(n-1,1)} alpha(sigma) Shape(alpha_{n-1}(first), last)
        ell_n   = Rperp_n + sum_{Sh(n-1,1)} alpha(sigma) Gamma(alpha_{n-1}(first), last)
    and the anchor tables are {v_1..v_n | a} = (-1)^{|a| |alpha_n(v)|}-twisted
    pairings of alpha_n with dhat.

    Every map is read on generators, off its stored words by
    ``algebroid._letter_transpose``: the curvature families, and Shape, Gamma
    and dhat as rows on the tangent generators t_j, made once per call (dhat
    e_b on t_j signed (-1)^{|e_b| |t_j|}).  Each alpha_n(key), ell_n(key) and anchor
    value is summed in one coefficient table and made one element when
    complete; the coefficients of alpha_{n-1} multiply the rows from the
    left (``_add_contraction``).  That is the Koszul extension
    of the pairings on the degree-homogeneous tensors that
    ``geometric_degree_problems`` admits: the Koszul sign of a coefficient
    cancels against the transpose's twist (-1)^{|e_c||g_i|} of a basis
    element e_c, or against the anchor twist.

    On a sorted key the unshuffle that puts position p last has
    alpha(sigma) = (-1)^{|v_p| sum_{q > p} |v_q|}.  A run of m equal letters
    x of the key gives m equal terms: removing any of its positions leaves
    the same first, the key less one x, and for m >= 2 the sign is +1 at
    each, as x is even (a key repeats no odd letter) and so is the exponent.
    So a run is contracted once, at its last position, scaled by m, as
    ``DerivationD._walk`` substitutes a run once: one Shape and one Gamma
    contraction per (key, distinct letter).

    The keys come canonical from ``_nonvanishing_keys``, so each nonzero
    alpha_n, ell_n and anchor value is stored under its key as it is, with
    no ``BracketTable.set`` re-sort.  Nor can a check of ``set_bracket`` or
    ``set_anchor`` fail: ell_n has n <= cap, the anchors have arity
    m + 1 <= cap + 1, and the model refuses dhat on the unit, whose row is
    then empty.  An accumulator with no term makes no element.
    """
    cap = g.cap
    base = g.base
    S = AlgebroidStructure(base, g.normal, bracket_cap=cap)
    brackets, anchors = S.brackets, S.anchors
    degrees = g.normal.degrees
    tangent_degrees = g.tangent.degrees
    shape = _contraction_rows(g, g.shape, g.tangent, 0)
    gamma = _contraction_rows(g, g.gamma, g.normal, 1)

    alpha_tables: Dict[int, BracketTable] = {}
    for n in range(1, cap + 1):
        alpha = alpha_tables[n] = BracketTable(degrees)
        previous = alpha_tables.get(n - 1, {})
        # Rtan pairing i is signed (-1)^{|t_i|}; Rperp carries the
        # -(-1)^{|eta|} twist that relates letter substitution to the
        # bracket recovery formula
        rtan = _letter_transpose(g.nor, g.rtan_tables.get(n, {}), tangent_degrees, tangent_degrees, (n,))
        rperp = _letter_transpose(g.nor, g.curv_perp.get(n, {}), degrees, [d + 1 for d in degrees], (n,))
        for key in _nonvanishing_keys(degrees, n):
            alpha_acc = rtan.get(key, {})
            ell_acc = rperp.get(key, {})
            start = 0
            for p, last in enumerate(key):
                if p + 1 < n and key[p + 1] == last:
                    continue  # the run of last ends further on
                inner = previous.get(key[:p] + key[p + 1:])
                if inner is not None:
                    factor = p + 1 - start
                    if degrees[last] * sum(degrees[q] for q in key[p + 1:]) & 1:
                        factor = -factor
                    _add_contraction(alpha_acc, base, inner, shape[last], factor)
                    _add_contraction(ell_acc, base, inner, gamma[last], factor)
                start = p + 1
            if alpha_acc:
                value = _module_value(g.tangent, alpha_acc)
                if value.coeffs:
                    alpha[key] = value
            if ell_acc and n >= 2:
                ell = _module_value(g.normal, ell_acc)
                if ell.coeffs:
                    brackets.setdefault(n, BracketTable(degrees))[key] = ell

    dhat = _dhat_rows(g)
    for m, alpha in alpha_tables.items():
        for key, alpha_val in alpha.items():
            acc: Coefficients = {}
            _add_contraction(acc, base, alpha_val, dhat, 1)
            for b in sorted(acc):
                coeffs = _reduced_items(acc[b])
                if coeffs:
                    anchors.setdefault(m + 1, BracketTable(degrees))[key, b] = _element(base, coeffs)
    return S


def duality_residual(g: GeometricModel) -> Dict[str, SymElement]:
    """Difference between the CE derivation of the emitted structure and the
    directly assembled differential; empty means the central duality holds."""
    return generator_differences(ce_differential(structure_from_geometry(g), weight_cap=g.cap), build_frakD(g))
