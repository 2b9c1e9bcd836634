"""The weight-truncated completed symmetric algebra and its degree-1 derivations.

Elements live in S^0 + S^1 + ... + S^W over a BaseAlgebra, where the weight-r
piece is spanned by words of r "letters" (dual generators of a free module).
A ``SymElement`` is an ``algebra.Combination`` keyed by word: its (word,
left coefficient from the base algebra) pairs, sorted by word, a word being
a sorted tuple of letter indices; ``data`` gives them as a new dict.  Words
with a repeated odd letter vanish.  Sorting and vanishing follow the one
word rule of ``signs`` (``_sort_word``, ``_vanishes``), shared with the
bracket tables of ``linfty``.

Every word denotes a graded symmetric multilinear map: a single letter pairs
against module elements, and longer words evaluate through the unshuffle
product formula

    (eta.eta')(v_1..v_{r+r'}) = sum_{Sh(r,r')} (-1)^{|eta'|(|v_s1|+..+|v_sr|)}
                                alpha(s, v) eta(v_s1..v_sr) eta'(v_s(r+1)..)

so the stored-word view and the multilinear-map view convert exactly into
each other (``evaluate`` / ``from_values``).

The conversion reads the word table directly.  A sorted word w evaluated on
its own generators g_{w_1}, ..., g_{w_r} gives the nonzero integer

    kappa(w) = prod_j m_j! * (-1)^{o(o-1)/2}

(m_j the multiplicity of letter j, o the number of odd letters) and vanishes
on the generators of any other word.  So ``from_values`` divides each value
by kappa(w), and ``evaluate`` on generators is one table read times kappa
and the Koszul sign of sorting the arguments.  General arguments
(coefficients, sums) take the same read: each total-degree part of the
element is a map of that degree, extended A-multilinearly by
``modules.multilinear_extend``.  Between generator tables and words the
conversion is one transpose each way, ``algebroid._word_transpose`` and
``algebroid._letter_transpose``: the Chevalley-Eilenberg dictionary, whose
arity-1 part is the differential d0 induced by (d_A, d_L)
(``algebroid.d0_derivation``).  No command calls ``from_values`` or
``evaluate``.

The product and the Leibniz rule form each output term once: the letters
are merged into a sorted word with their Koszul sign (one factor -1 per pair
of odd letters moved past each other, zero on a repeated odd letter) and the
coefficient is summed through the one product rule of the base
(``algebra._add_product``).  For base elements e_i, e_j and words w1, w2

    (a e_i) w1 * (b e_j) w2 = (-1)^(|e_j||w1| + s) (a b e_i e_j) sort(w1 w2),

and a degree-k derivation D with D(x) = sum (c e_j) v substitutes the letter
x of w = prefix x rest as

    (-1)^(k (|e_i| + |prefix|) + |e_j||prefix| + s) (a c e_i e_j) sort(prefix v rest),

s the sort sign exponent.  A run of m equal letters (necessarily even) is
substituted once with weight m.  The untouched letters of the Leibniz rule
carry the unit coefficient, and multiplying by it is left out: that is exact,
as ``BaseAlgebra`` refuses a product that breaks the unit law.

The product sorts the concatenated letters (``signs._sort_word``).  The
Leibniz walk sorts nothing: a word is a packed integer key with B =
cap.bit_length() + 1 bits of exponent per letter, beside the bitmask of its
odd letters, so sort(prefix v rest) has the key key(w) - unit[x] + key(v),
vanishes when its odd masks overlap and has s = popcount((P & above(v)) ^
(C & below(v))) for the odd masks P, C of prefix and rest (``_walk`` gives
the rule).  Each word is packed, and each key unpacked, once per
``SymAlgebra``; elements, the parser and the reports keep sorted tuples.

A ``DerivationD`` applies the Leibniz rule in one walk over the terms
s e_i w of its argument (basis element e_i, sorted word w, scalar s): each
term of s D(e_i w) is added straight into the one accumulator of the
result, the scalar s folded into the multiplication of its coefficient, so
no image of a single grid element is formed or kept.  ``_row(w, i)`` is the
element D(e_i w), the same walk over the one term e_i w; the lemma checks of
``geometry`` read it.

Products and ``apply`` results are summed in one coefficient table
(``scalars.Coefficients``, unreduced triples per word) and made elements by
the one finisher, ``algebra._reduced_values``, each coefficient reduced
once, when its sum is complete, so every coefficient of a result is a
reduced nonzero Scalar.  A derivation keeps its values as packed terms
sorted by word length, so the walk stops at the first term over the cap,
and its square, made once, one walk per stored value: D(x) on a generator
is read off the table, as a derivation kills the unit (``DerivationD``
refuses a value there).  It keeps no state of its walks.  A
``FilteredAutomorphism`` is exp(phi) for a weight-raising derivation phi and
keeps no table: it sums the series of phi's powers, each one walk of phi.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .algebra import (
    AlgebraElement, BaseAlgebra, Combination, _add_product, _degree_problem, _reduced_values, _refuse_foreign
)
from .errors import BaseMismatch, CapError, DegreeError, KitError
from .modules import FreeModule, ModuleElement, multilinear_extend
from .scalars import Coefficients, Scalar, _add_multiple, sign_scalar
from .signs import _nonvanishing_keys, _sort_word, _vanishes

Word = Tuple[int, ...]


class SymAlgebra:
    """Carrier of the truncated symmetric algebra: base, letters, weight cap."""

    def __init__(
        self,
        base: BaseAlgebra,
        letters: Sequence[Tuple[str, int]],
        cap: int = 4,
    ):
        if cap < 0:
            raise CapError("weight cap must be nonnegative")
        self.base = base
        self.letter_names = tuple(n for n, _ in letters)
        self.letter_degrees = tuple(int(d) for _, d in letters)
        self.cap = cap
        self._words: Dict[int, Tuple[Word, ...]] = {}
        # the packed words of the Leibniz walk (``DerivationD._walk``): B bits
        # of exponent per letter, unit[x] = 1 << B x, and the bit of each odd
        # letter; each word met is packed, and each key met unpacked, once
        self._bits = cap.bit_length() + 1
        self._unit = tuple(1 << self._bits * x for x in range(len(letters)))
        self._odd_bit = tuple((d & 1) << x for x, d in enumerate(self.letter_degrees))
        self._packed: Dict[Word, Tuple[int, int]] = {}
        self._unpacked: Dict[int, Word] = {}
        self._generators: Optional[Tuple[Tuple[int, int, str, SymElement], ...]] = None
        # elements are immutable, so the zero is made once and shared
        self._zero = _sym_element(self, ())

    @staticmethod
    def over_module(module: FreeModule, cap: int = 4) -> "SymAlgebra":
        letters = [
            (name + "^", -deg) for name, deg in zip(module.gen_names, module.degrees)
        ]
        return SymAlgebra(module.base, letters, cap)

    @property
    def n_letters(self) -> int:
        return len(self.letter_names)

    def word_degree(self, word: Word) -> int:
        return sum(self.letter_degrees[i] for i in word)

    def words_of_weight(self, r: int) -> Tuple[Word, ...]:
        """All nonzero sorted words of weight r (repeated odd letters dropped),
        in lexicographic order; listed once per weight, and a tuple, since
        every caller shares it."""
        words = self._words.get(r)
        if words is None:
            words = self._words[r] = tuple(_nonvanishing_keys(self.letter_degrees, r))
        return words

    def generators(self) -> Tuple[Tuple[int, int, str, "SymElement"], ...]:
        """(slot, index, label, element) for every generator of the algebra:
        the base basis elements (slot 0), then the letters (slot 1).

        An operator is stored by its values on these, in the table
        ``(on_algebra, on_letters)[slot]``; the slot is also the weight of
        the generator.  Made once per algebra, and a tuple, since every
        caller shares it.
        """
        gens = self._generators
        if gens is None:
            base = self.base
            gens = self._generators = tuple(
                [(0, i, base.names[i], self.scalar(base.basis_element(i))) for i in range(base.dim)]
                + [(1, j, self.letter_names[j], self.letter(j)) for j in range(self.n_letters)]
            )
        return gens

    def zero(self) -> "SymElement":
        return self._zero

    def scalar(self, a: AlgebraElement) -> "SymElement":
        return SymElement(self, {(): a})

    def letter(self, i: int, coeff: Optional[AlgebraElement] = None) -> "SymElement":
        return SymElement(self, {(i,): coeff if coeff is not None else self.base.one()})

    def word(self, word: Iterable[int], coeff: Optional[AlgebraElement] = None) -> "SymElement":
        """Build c * (sorted word), normalizing the letter order with Koszul signs."""
        letters = tuple(word)
        c = coeff if coeff is not None else self.base.one()
        if len(letters) > self.cap:
            return self.zero()
        merged = _sort_word(self.letter_degrees, letters)
        if merged is None:
            return self.zero()
        w, exponent = merged
        return SymElement(self, {w: c.scale(sign_scalar(exponent))})

    def _pack(self, word: Word) -> Tuple[int, int]:
        """The packed key of a word, the sum of unit[x] over its letters x,
        and the mask of its odd letters; packed once per algebra."""
        unit, odd_bit = self._unit, self._odd_bit
        key = mask = 0
        for x in word:
            key += unit[x]
            mask |= odd_bit[x]
        packed = self._packed[word] = key, mask
        return packed

    def _unpack(self, key: int) -> Word:
        """The sorted word of a packed key; unpacked once per algebra."""
        bits, letters, x, rest = self._bits, [], 0, key
        field = (1 << bits) - 1
        while rest:
            letters.extend((x,) * (rest & field))
            rest >>= bits
            x += 1
        word = self._unpacked[key] = tuple(letters)
        return word

    def compatible(self, other: "SymAlgebra") -> bool:
        return self is other or (
            self.base is other.base
            and self.letter_names == other.letter_names
            and self.letter_degrees == other.letter_degrees
            and self.cap == other.cap
        )


class SymElement(Combination):
    """Element of a SymAlgebra: sorted word -> left coefficient, an element of
    the base; a term a w has degree |a| + |w|."""

    __slots__ = ()
    algebra = Combination.space

    def _admitted(self, algebra: SymAlgebra, pairs: tuple) -> tuple:
        """A word over the cap or with a repeated odd letter is dropped, an
        unsorted or foreign one refused."""
        n, cap, letter_degrees = algebra.n_letters, algebra.cap, algebra.letter_degrees
        for w, _ in pairs:
            if w != tuple(sorted(w)) or w and (w[0] < 0 or w[-1] >= n):
                raise KitError(f"word {w!r} is not a sorted tuple of letter indices below {n}")
        return tuple(p for p in pairs if len(p[0]) <= cap and not _vanishes(p[0], letter_degrees, True))

    def _compatible(self, algebra: SymAlgebra) -> bool:
        return self.algebra.compatible(algebra)

    def _key_degree(self, w: Word) -> int:
        return self.algebra.word_degree(w)

    @property
    def data(self) -> Dict[Word, AlgebraElement]:
        """The terms as a new {word: coefficient} dict, in word order."""
        return dict(self.coeffs)

    def weights(self) -> List[int]:
        return sorted({len(w) for w, _ in self.coeffs})

    def weight_part(self, r: int) -> "SymElement":
        return _sym_element(self.algebra, tuple(p for p in self.coeffs if len(p[0]) == r))

    def __mul__(self, other: "SymElement") -> "SymElement":
        """Graded commutative product; weights above the cap are discarded.

        (a e_i) w1 * (b e_j) w2 = (-1)^(|e_j||w1| + s) (a b e_i e_j) sort(w1 w2),
        where s is the Koszul sign exponent of sorting the letters of w1 w2;
        a sorted word with a repeated odd letter is zero.  Each output term is
        summed through the product rule (``algebra._add_product``) and each
        coefficient reduced once (``algebra._reduced_values``); a pair over
        the cap is skipped before its letters are sorted.
        """
        self._check(other)
        alg = self.algebra
        base = alg.base
        letter_degrees = alg.letter_degrees
        acc: Coefficients = {}
        for w1, a1 in self.coeffs:
            room = alg.cap - len(w1)
            d1 = alg.word_degree(w1)
            for w2, a2 in other.coeffs:
                if len(w2) > room:
                    continue
                merged = _sort_word(letter_degrees, w1 + w2)
                if merged is None:
                    continue
                word, exponent = merged
                coeffs = acc.setdefault(word, {})
                t = -1 if exponent & 1 else 1
                for i, ai in a1.coeffs:
                    _add_product(coeffs, base, i, a2.coeffs, d1, t * ai.n_re, t * ai.n_im, ai.den)
        return _sym_element(alg, _reduced_values(base, acc))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        names = self.algebra.letter_names
        bits = []
        for w, a in self.coeffs:
            word_str = "*".join(names[i] for i in w) if w else "1"
            bits.append(f"[{a}]{word_str}")
        return " + ".join(bits)


_sym_element = SymElement._made


def _has_degree(el: SymElement, want: int, letter_degrees: Sequence[int], base_degrees: Sequence[int]) -> bool:
    """Whether every term of el has degree want, read in one walk: a word's
    degree off letter_degrees, and that of each basis element of its
    coefficient off base_degrees.  A zero el passes, as in
    ``algebra._degree_problem``, whose messages a failing value gets."""
    for w, c in el.coeffs:
        need = want - sum(map(letter_degrees.__getitem__, w))
        for j, _ in c.coeffs:
            if base_degrees[j] != need:
                return False
    return True


# The terms of one stored derivation value, shortest words first: (length,
# packed key, odd mask, above, below, coefficients as (basis index, Scalar)
# pairs), above / below the XOR over the odd letters y of the word of the
# odd letters greater / less than y (``DerivationD._value_terms``).
ValueTerms = Tuple[Tuple[int, int, int, int, int, Tuple[Tuple[int, Scalar], ...]], ...]


# ---------------------------------------------------------------------------
# evaluation <-> representation
# ---------------------------------------------------------------------------


def evaluate(element: SymElement, args: Sequence[ModuleElement], module: FreeModule) -> AlgebraElement:
    """Evaluate the weight-len(args) part of element on module elements.

    The letters of element.algebra must be the dual generators of module
    (in order), and every argument must be an element of module, even where
    the element has no part of weight len(args) (BaseMismatch otherwise).

    Each total-degree part of the weight-r piece is a graded symmetric map
    of that degree, extended from generator tuples by ``multilinear_extend``.
    On generators the value is read off the table: sorting the indices gives
    a word w and a Koszul sign, and only w is nonzero there, so the value is
    sign * kappa(w) * (coefficient of w).
    """
    parts = element.weight_part(len(args)).homogeneous_parts()
    return _evaluate_parts(element.algebra, parts, args, module)


def _evaluate_parts(
    alg: SymAlgebra, parts: Mapping[int, SymElement], args: Sequence[ModuleElement], module: FreeModule
) -> AlgebraElement:
    """``evaluate`` on the total-degree parts {degree: part} of a weight-len(args) piece.

    A caller that evaluates one element on many argument tuples splits it
    once and passes the same parts every time.
    """
    base = alg.base
    letter_degrees = alg.letter_degrees
    r = len(args)
    if r > alg.cap:
        raise CapError(f"cannot evaluate {r} arguments at weight cap {alg.cap}")
    if module.rank != alg.n_letters:
        raise BaseMismatch("module generators do not match algebra letters")
    if any(v.module is not module for v in args):
        raise BaseMismatch("evaluation argument from another module")
    total = base.zero()
    for degree, part in parts.items():

        def read(gens: Word, data=part.data) -> Optional[AlgebraElement]:
            merged = _sort_word(letter_degrees, gens)
            if merged is None:  # a repeated odd generator
                return None
            w, exponent = merged
            a = data.get(w)
            if a is None:
                return None
            value = a.scale(Scalar.rational(_word_constant(alg, w)))
            return -value if exponent & 1 else value

        total = total + multilinear_extend(read, degree, args, module.degrees, base.zero())
    return total


def _word_constant(alg: SymAlgebra, word: Word) -> int:
    """kappa(w): the sorted word w evaluated on its own generators, in order,
    a nonzero integer.

    kappa(w) = prod_j m_j! * (-1)^{o(o-1)/2}, where m_j is the multiplicity
    of letter j in w and o the number of odd letters.  A run of m equal
    letters (even, or the word would vanish) pairs with its m generators in
    m! ways, all with the same sign, and each letter's generator is moved
    past the later letters, one sign for every pair of odd letters.  The
    transposes of ``algebroid`` use the integer as it is; ``from_values``
    and ``evaluate`` make it a Scalar.
    """
    kappa = 1
    run = 0
    odd = 0
    for k, letter in enumerate(word):
        run = run + 1 if k and word[k - 1] == letter else 1
        kappa *= run
        odd += alg.letter_degrees[letter] % 2
    return -kappa if odd * (odd - 1) // 2 % 2 else kappa


def from_values(
    alg: SymAlgebra,
    module: FreeModule,
    weight: int,
    value_fn: Callable[[Tuple[int, ...], List[ModuleElement]], AlgebraElement],
) -> SymElement:
    """Reconstruct the unique weight-r word sum with prescribed values.

    value_fn receives (generator index tuple, generator elements) for every
    sorted multiset of generators without odd repeats and must return the
    value of the desired symmetric A-multilinear map there.  Requires the
    module to be free with the letters as its dual basis.  A word w takes
    the value kappa(w) on its own generators (``_word_constant``), a nonzero
    integer, so its coefficient is value / kappa(w).
    """
    if weight > alg.cap:
        raise CapError("weight above cap")
    if weight == 0:
        return alg.scalar(value_fn((), []))
    acc: Dict[Word, AlgebraElement] = {}
    for word in alg.words_of_weight(weight):
        value = value_fn(word, [module.generator(i) for i in word])
        if value.is_zero():
            continue
        acc[word] = value.scale(Scalar.rational(1, _word_constant(alg, word)))
    return SymElement(alg, acc)


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------


class DerivationD:
    """Degree-1 derivation of a SymAlgebra, stored on generators.

    on_algebra maps base-basis indices to SymElements (all weights mixed);
    on_letters maps letter indices likewise.  The weight-n component D_n acts
    on the base with weight-n values and on letters with weight-(n+1) values.
    ``apply`` walks these values, beside which the derivation keeps their
    packed terms, and ``square`` keeps the square, so they
    are never changed after construction.  A nonzero value on the unit is
    refused: a derivation kills it.
    """

    def __init__(
        self,
        algebra: SymAlgebra,
        on_algebra: Mapping[int, SymElement],
        on_letters: Mapping[int, SymElement],
        degree: int = 1,
        check: bool = True,
    ):
        # a key that names no generator: nothing would apply its value, yet
        # == would compare it
        _refuse_foreign("operator key", on_algebra, algebra.base.dim, "base element")
        _refuse_foreign("operator key", on_letters, algebra.n_letters, "letter")
        self.algebra = algebra
        self.degree = degree
        self.on_algebra = {
            i: v for i, v in on_algebra.items() if not v.is_zero()
        }
        self.on_letters = {
            i: v for i, v in on_letters.items() if not v.is_zero()
        }
        # D(1) = 0: the walk leaves out the unit coefficient of untouched
        # letters, and ``square`` reads D(x) as the stored value
        unit = algebra.base.unit
        if unit in self.on_algebra:
            raise KitError(f"derivation value on the unit {algebra.base.names[unit]!r} is not zero")
        # the values as packed length-sorted terms (``_value_terms``) and the
        # square (``square``)
        self._terms: Optional[Tuple[Dict[int, ValueTerms], Dict[int, ValueTerms]]] = None
        self._square: Optional[DerivationD] = None
        if check:
            self._check_degrees()

    def labelled(self) -> Iterator[Tuple[int, str, SymElement, SymElement]]:
        """(slot, label, generator, value) of every stored value, in generator order."""
        tables = (self.on_algebra, self.on_letters)
        for slot, i, label, x in self.algebra.generators():
            if i in tables[slot]:
                yield slot, label, x, tables[slot][i]

    def _check_degrees(self):
        """Refuse a stored value that is not homogeneous of the degree of its
        generator plus the derivation's.  Each value is decided in one walk of
        its terms (``_has_degree``); only when one fails are the values read
        again, in generator order, for the ``_degree_problem`` message of the
        first that fails."""
        alg = self.algebra
        base_degrees, letter_degrees = alg.base.degrees, alg.letter_degrees
        d = self.degree
        tables = ((base_degrees, self.on_algebra), (letter_degrees, self.on_letters))
        if all(
            _has_degree(v, degrees[i] + d, letter_degrees, base_degrees)
            for degrees, table in tables
            for i, v in table.items()
        ):
            return
        for slot, i, label, _ in alg.generators():
            degrees, table = tables[slot]
            if i in table:
                kind = ("", "letter ")[slot]
                problem = _degree_problem(f"derivation value on {kind}{label}", table[i], degrees[i] + d)
                if problem:
                    raise DegreeError(problem)

    # -- component access ----------------------------------------------------

    def component_on_algebra(self, n: int, i: int) -> SymElement:
        got = self.on_algebra.get(i)
        return got.weight_part(n) if got is not None else self.algebra.zero()

    def weight_component(self, n: int) -> "DerivationD":
        return DerivationD(
            self.algebra,
            {i: v.weight_part(n) for i, v in self.on_algebra.items()},
            {i: v.weight_part(n + 1) for i, v in self.on_letters.items()},
            degree=self.degree,
            check=False,
        )

    # -- application -----------------------------------------------------------

    def apply(self, element: SymElement) -> SymElement:
        """Graded Leibniz extension, truncated at the weight cap: one
        ``_walk`` over the terms of element, each coefficient of the result
        reduced once."""
        if not self.algebra.compatible(element.algebra):
            raise BaseMismatch("derivation and element over incompatible algebras")
        return self._walk(element.coeffs)

    def _row(self, w: Word, i: int) -> SymElement:
        """D(e_i w): the walk over the one term e_i w."""
        return self._walk(((w, self.algebra.base.basis_element(i)),))

    def _walk(self, terms: Iterable[Tuple[Word, AlgebraElement]]) -> SymElement:
        """sum s D(e_i w) over the terms s e_i w of the (word, coefficient)
        pairs given, by the Leibniz rule: unreduced triples summed in one
        coefficient table, which ``algebra._reduced_values`` finishes.

        D(e_i) = sum (c e_k) v contributes s (c e_k) sort(v w) with the sort
        sign only.  For w = prefix x rest and D(x) = sum (c e_j) v, the letter
        x contributes

            (-1)^(D.degree (|e_i| + |prefix|) + |e_j| |prefix| + s')
                s (c e_i e_j) sort(prefix v rest),

        s' the Koszul sign exponent of the sort.  A run of m equal letters
        (even, or the word would vanish) gives m equal terms, so it is
        substituted once, at its first position, with weight m.  The scalar s
        and the sign enter the one multiplication of each coefficient
        (``scalars._add_multiple``, ``algebra._add_product``), so no image of
        a single term is formed.  The terms of each value are read shortest
        first (``_value_terms``), so the walk stops at the first one over the
        cap.  The Leibniz rule multiplies each term by the unit coefficient of
        the untouched letters; that factor is left out, which is exact:
        ``BaseAlgebra`` refuses a break of the unit law.

        No letters are concatenated or sorted: each word is a packed key (the
        sum of unit[x] = 1 << B x over its letters x, B = cap.bit_length() + 1
        bits of exponent per letter) with the mask of its odd letters, packed
        once per algebra (``SymAlgebra._pack``); the value terms are packed
        once per derivation.  With P and C the odd masks of prefix and rest, and
        above_v / below_v the XOR over the odd letters y of v of the odd
        letters greater / less than y, sort(prefix v rest) has the key
        key(w) - unit[x] + key(v), vanishes iff odd(v) & (P | C), and has
        s' = popcount((P & above_v) ^ (C & below_v)); sort(v w) has the key
        key(w) + key(v), vanishes iff odd(v) & odd(w), and has
        s' = popcount(odd(w) & below_v).  Each result key is unpacked once,
        through the algebra's {key: word} table (``SymAlgebra._unpack``).
        """
        alg = self.algebra
        base = alg.base
        degrees = base.degrees
        letter_degrees = alg.letter_degrees
        unit, odd_bit = alg._unit, alg._odd_bit
        odd = self.degree & 1
        on_algebra, on_letters = self._terms or self._value_terms()
        packed = alg._packed
        acc: Coefficients = {}
        for w, a in terms:
            pairs = a.coeffs
            n = len(w)
            room = alg.cap - n
            key, mask = packed.get(w) or alg._pack(w)
            for i, s in pairs:
                for length, key_v, odd_v, _, below, coeffs in on_algebra.get(i, ()):
                    if length > room:
                        break
                    if odd_v & mask:
                        continue
                    out = acc.get(key + key_v)
                    if out is None:
                        out = acc[key + key_v] = {}
                    t = -1 if (mask & below).bit_count() & 1 else 1
                    _add_multiple(out, coeffs, t * s.n_re, t * s.n_im, s.den)
            room += 1
            pos = 0
            prefix_degree = 0
            prefix_odd = 0
            while pos < n:
                x = w[pos]
                end = pos + 1
                while end < n and w[end] == x:
                    end += 1
                values = on_letters.get(x)
                if values is not None and values[0][0] <= room:
                    others = mask ^ odd_bit[x]
                    rest_odd = others ^ prefix_odd
                    key_x = key - unit[x]
                    m = end - pos
                    shift = odd * prefix_degree
                    for length, key_v, odd_v, above, below, coeffs in values:
                        if length > room:
                            break
                        if odd_v & others:
                            continue
                        out = acc.get(key_x + key_v)
                        if out is None:
                            out = acc[key_x + key_v] = {}
                        exponent = ((prefix_odd & above) ^ (rest_odd & below)).bit_count() + shift
                        for i, s in pairs:
                            t = -m if (exponent + odd * degrees[i]) & 1 else m
                            _add_product(out, base, i, coeffs, prefix_degree, t * s.n_re, t * s.n_im, s.den)
                prefix_degree += letter_degrees[x] * (end - pos)
                prefix_odd |= odd_bit[x]
                pos = end
        unpacked = alg._unpacked
        table: Coefficients = {}
        for k, sums in acc.items():
            w = unpacked.get(k)
            table[alg._unpack(k) if w is None else w] = sums
        return _sym_element(alg, _reduced_values(base, table))

    def _value_terms(self) -> Tuple[Dict[int, ValueTerms], Dict[int, ValueTerms]]:
        """The stored values as (on_algebra, on_letters) term tables, made
        once, on the first walk: {index: ((length, key, odd, above, below,
        coefficients), ...)}, shortest words first."""
        unit, odd_bit = self.algebra._unit, self.algebra._odd_bit
        odd_letters = sum(odd_bit)

        def terms(value: SymElement) -> ValueTerms:
            out = []
            for v, a in value.coeffs:
                key = odd = above = below = 0
                for y in v:
                    key += unit[y]
                    bit = odd_bit[y]
                    if bit:
                        odd |= bit
                        above ^= odd_letters & -(bit << 1)
                        below ^= odd_letters & (bit - 1)
                out.append((len(v), key, odd, above, below, a.coeffs))
            out.sort(key=itemgetter(0))
            return tuple(out)

        self._terms = (
            {i: terms(v) for i, v in self.on_algebra.items()},
            {i: terms(v) for i, v in self.on_letters.items()},
        )
        return self._terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DerivationD)
            and self.algebra.compatible(other.algebra)
            and self.degree == other.degree
            and self.on_algebra == other.on_algebra
            and self.on_letters == other.on_letters
        )

    def __hash__(self):
        raise TypeError("DerivationD is not hashable")


# ---------------------------------------------------------------------------
# squares, automorphisms, conjugation, Maurer-Cartan
# ---------------------------------------------------------------------------


def _on_generators(alg: SymAlgebra, value: Callable[[SymElement], SymElement], degree: int) -> DerivationD:
    """The operator of the given degree that takes value(x) on every generator x of alg."""
    tables: Tuple[Dict[int, SymElement], Dict[int, SymElement]] = ({}, {})
    for slot, i, _, x in alg.generators():
        tables[slot][i] = value(x)
    return DerivationD(alg, *tables, degree=degree, check=False)


def square(D: DerivationD) -> DerivationD:
    """D o D on every generator: for an odd D the derivation [D, D]/2.

    D(x) is read off D's table, so the square is one ``apply`` per stored
    value: D(e_i) is the stored value, and so is D(x) for a letter x, the
    unit coefficient of x contributing D(1) x = 0 (``DerivationD`` refuses a
    value on the unit).  Where no value is stored D(x) = 0, and at cap 0
    every letter is zero.  Made once per D and kept beside its values, so
    every check that reads the square of one derivation (``mc`` reads that
    of Phi D0 Phi^{-1} twice) builds it once."""
    if D._square is None:
        on_letters = D.on_letters if D.algebra.cap else {}
        D._square = DerivationD(
            D.algebra,
            {i: D.apply(v) for i, v in D.on_algebra.items()},
            {j: D.apply(v) for j, v in on_letters.items()},
            degree=2 * D.degree,
            check=False,
        )
    return D._square


def generator_differences(A: DerivationD, B: DerivationD) -> Dict[str, SymElement]:
    """{generator label: A(x) - B(x)} on every generator x where A and B differ."""
    out: Dict[str, SymElement] = {}
    zero = A.algebra.zero()
    for slot, i, label, _ in A.algebra.generators():
        lhs = (A.on_algebra, A.on_letters)[slot].get(i, zero)
        rhs = (B.on_algebra, B.on_letters)[slot].get(i, zero)
        if lhs != rhs:
            out[label] = lhs - rhs
    return out


def square_components(D: DerivationD) -> Dict[int, Dict[str, SymElement]]:
    """``square(D)`` split by weight shift: {n: {generator label: nonzero
    part}}, empty when D^2 = 0 up to the cap.  For a base element the
    shift-n part has weight n, for a letter weight n+1."""
    residuals: Dict[int, Dict[str, SymElement]] = {}
    for slot, label, _, dd in square(D).labelled():
        for r in dd.weights():
            residuals.setdefault(r - slot, {})[label] = dd.weight_part(r)
    return dict(sorted(residuals.items()))


class FilteredAutomorphism:
    """Phi = exp(phi) for a degree-0 derivation phi that raises the weight:
    an algebra automorphism of the truncated symmetric algebra which is the
    identity on the associated weight-graded algebra.

    Each power of phi raises the weight by at least one, so phi is nilpotent
    under the cap and both Phi = sum_k phi^k / k! and its inverse
    Phi^{-1} = exp(-phi) are finite series, each at most cap + 1
    applications of phi.  Every power is one walk of phi (``DerivationD.apply``);
    neither Phi nor phi keeps a table of images.
    """

    def __init__(self, phi: DerivationD):
        if phi.degree != 0:
            raise DegreeError(f"automorphism exp(phi) needs a degree-0 derivation, not degree {phi.degree}")
        phi._check_degrees()
        for slot, label, _, v in phi.labelled():
            if min(v.weights()) <= slot:
                kind = ("base element", "letter")[slot]
                raise KitError(f"automorphism is not the identity on gr at {kind} {label}")
        self.algebra = phi.algebra
        self.phi = phi

    def apply(self, element: SymElement) -> SymElement:
        """exp(phi)(element) = sum_k phi^k(element) / k!."""
        return self._series(element, 1)

    def apply_inverse(self, element: SymElement) -> SymElement:
        """exp(-phi)(element) = sum_k (-1)^k phi^k(element) / k!."""
        return self._series(element, -1)

    def _series(self, element: SymElement, sign: int) -> SymElement:
        """sum_k (sign phi)^k(element) / k!, each term sign/k times phi of the
        one before; it stops at the first zero term, by cap + 1 at the latest."""
        if not self.algebra.compatible(element.algebra):
            raise BaseMismatch("automorphism and element over incompatible algebras")
        total = term = element
        for k in range(1, self.algebra.cap + 2):
            term = self.phi.apply(term)
            if term.is_zero():
                break
            term = term.scale(Scalar.rational(sign, k))
            total = total + term
        return total


def conjugate(Phi: FilteredAutomorphism, D: DerivationD) -> DerivationD:
    """Phi o D o Phi^{-1}, stored by its values on the generators.  Each value
    is made by walks of phi and D only: Phi and Phi^{-1} are series of phi's
    powers, so no ``SymElement`` is multiplied."""
    if not D.algebra.compatible(Phi.algebra):
        raise BaseMismatch("automorphism and derivation over incompatible algebras")
    return _on_generators(D.algebra, lambda x: Phi.apply(D.apply(Phi.apply_inverse(x))), D.degree)


def mc_residual(D0: DerivationD, conjugated: DerivationD) -> Dict[str, SymElement]:
    """Residual of the Maurer-Cartan identity for the deficiency of
    Phi = exp(phi), given D0 and conjugated = Phi o D0 o Phi^{-1}
    (``conjugate``), which the caller builds once and may read again: the
    square of conjugated made here is kept (``square``), so
    ``square_components(conjugated)`` reads it without a second square.

    omega := Phi o D0 o Phi^{-1} - D0 measures how far Phi is from
    intertwining D0 with itself; when D0^2 = 0 the combination
    [D0, omega] + omega o omega vanishes identically.  By bilinearity it is
    C o C - D0 o D0 for C = conjugated: the nonzero values of that
    difference on generators (empty dict == residual zero).
    """
    return generator_differences(square(conjugated), square(D0))
