"""Test oracles for the operators of ``symtensor``.

The Maurer-Cartan residual in its three-term form, and the sum of two
derivations it is built from: ``symtensor.mc_residual`` evaluates
C(Cx) - D0(D0x) for C = Phi D0 Phi^{-1}; by bilinearity that equals
D0(omega x) + omega(D0 x) + omega(omega x) for the deficiency omega = C - D0,
which ``oracle_mc_residual`` evaluates.

The square D o D with one pair of ``apply`` calls per generator, split by
weight shift (``oracle_square_components``) and compared between two
derivations (``oracle_squares_difference``): the oracles of
``symtensor.square_components`` and of the ``mc_residual`` comparison, which
read one ``symtensor.square``.

The multiplicative Phi = exp(phi): ``symtensor.FilteredAutomorphism`` sums
the series of phi's powers on every element it is given.  The oracle sums it
on the generators only (``exp_images``), extends those images letter by
letter as an algebra map (``reference_automorphism_apply``) and inverts that
map by its Neumann series (``reference_apply_inverse``).

The differential d0 induced by (d_A, d_L) as ``symtensor`` built it before it
became the arity-1 part of the Chevalley-Eilenberg dictionary
(``algebroid.d0_derivation``): ``oracle_d0_derivation``, one
``modules.pair_dual`` per letter and generator
(``oracle_dual_differential_letter``).

The Leibniz row kernel as ``DerivationD`` ran it with one ``Scalar`` operation
per product and per sum: ``oracle_row`` is D(e_i w) with every coefficient
reduced as it is formed, ``oracle_apply`` sums s times those rows into a
{word: {basis index: Scalar}} accumulator (``scalar_add_product``,
``scalar_collect``), the Scalar-by-Scalar path the kit's triple accumulator
replaced.  ``oracle_square`` and
``oracle_conjugate`` are ``symtensor.square`` and ``symtensor.conjugate`` read
through them, exp(phi) as the series of phi's powers (``oracle_exp_series``).
The base product and d_A (``scalar_base_mul``, ``scalar_base_d``) and the
two Chevalley-Eilenberg transposes (``scalar_letter_transpose``,
``scalar_word_transpose``) on the same Scalar path.

The Leibniz walk as ``DerivationD._walk`` ran it before it packed words:
``oracle_walk`` concatenates the letters of every substitution and sorts
them through a memo of the sorted word and sign of each concatenation
(``signs._sort_word``), over the value terms of ``oracle_value_terms``.

The random phi of ``mc`` as ``fixtures.random_weight_raising_derivation``
drew it before it solved only the degrees of Der(A) that some word reads:
``oracle_weight_raising_derivation`` solves every degree k and reads the
degree of a word wherever it needs it.  Both must make the same rng draws."""

from __future__ import annotations

from math import factorial

from algebroidkit.algebra import AlgebraElement, _add_product
from algebroidkit.linfty import algebra_derivation_basis
from algebroidkit.modules import pair_dual
from algebroidkit.scalars import MINUS_ONE, ONE, Scalar, _add_multiple, sign_scalar
from algebroidkit.signs import _sort_word
from algebroidkit.symtensor import DerivationD, SymElement, _normalized, _on_generators, _word_constant


def derivation_sum(D, E, sign=ONE):
    """D + sign * E, added generator by generator; no degree check."""
    if D.degree != E.degree:
        raise ValueError("adding derivations of different degree")
    zero = D.algebra.zero()
    tables = []
    for mine, theirs in ((D.on_algebra, E.on_algebra), (D.on_letters, E.on_letters)):
        out = dict(mine)
        for i, v in theirs.items():
            out[i] = out.get(i, zero) + v.scale(sign)
        tables.append(out)
    return DerivationD(D.algebra, *tables, degree=D.degree, check=False)


def oracle_mc_residual(D0, conjugated):
    """[D0, omega] + omega o omega on every generator, omega = conjugated - D0;
    the nonzero values by generator label."""
    omega = derivation_sum(conjugated, D0, MINUS_ONE)
    out = {}
    for _, _, label, x in D0.algebra.generators():
        val = D0.apply(omega.apply(x)) + omega.apply(D0.apply(x)) + omega.apply(omega.apply(x))
        if not val.is_zero():
            out[label] = val
    return out


def oracle_square_components(D):
    """{n: {generator label: weight-shift-n part of D(Dx)}}, the nonzero parts only."""
    residuals = {}
    for slot, _, label, x in D.algebra.generators():
        dd = D.apply(D.apply(x))
        for r in dd.weights():
            residuals.setdefault(r - slot, {})[label] = dd.weight_part(r)
    return dict(sorted(residuals.items()))


def oracle_squares_difference(D0, C):
    """{generator label: C(Cx) - D0(D0x)}, the nonzero values only."""
    out = {}
    for _, _, label, x in D0.algebra.generators():
        val = C.apply(C.apply(x)) - D0.apply(D0.apply(x))
        if not val.is_zero():
            out[label] = val
    return out


def exp_images(phi):
    """The (on_algebra, on_letters) tables of exp(phi) on the generators:
    x + sum_k phi^k(x) / k!, each power computed once, for at most cap + 1
    powers; the images equal to their generator are left out."""
    alg = phi.algebra
    tables = ({}, {})
    for slot, i, _, x in alg.generators():
        image = term = x
        for k in range(1, alg.cap + 2):
            term = phi.apply(term)
            if term.is_zero():
                break
            image = image + term.scale(Scalar.rational(1, factorial(k)))
        if image != x:
            tables[slot][i] = image
    return tables


def reference_automorphism_apply(images, element):
    """Phi(a) Phi(w_1) ... Phi(w_r) formed term by term, one letter at a time,
    from the generator images (on_algebra, on_letters) of Phi."""
    alg = element.algebra
    on_algebra, on_letters = images
    acc = alg.zero()
    for w, a in element.items():
        term = alg.zero()
        for i, c in a.items():
            img = on_algebra.get(i)
            if img is None:
                img = alg.scalar(alg.base.basis_element(i))
            term = term + img.scale(c)
        for letter in w:
            img = on_letters.get(letter)
            term = term * (img if img is not None else alg.letter(letter))
        acc = acc + term
    return acc


def reference_apply_inverse(images, element):
    """Phi^{-1}(element) as the Neumann series sum_k (id - Phi)^k(element) of
    ``reference_automorphism_apply``: Phi - id raises the weight, so the
    series ends by cap + 1."""
    acc = current = element
    for _ in range(element.algebra.cap + 1):
        current = current - reference_automorphism_apply(images, current)
        if current.is_zero():
            break
        acc = acc + current
    return acc


def oracle_d0_derivation(algebra, module):
    """The differential induced by (d_A, d_L): d_A on coefficients, d_{L^vee}
    on letters."""
    base = algebra.base
    on_algebra = {
        i: algebra.scalar(base.differential_basis(i))
        for i in range(base.dim)
        if not base.differential_basis(i).is_zero()
    }
    on_letters = {}
    for i in range(algebra.n_letters):
        val = oracle_dual_differential_letter(algebra, module, i)
        if not val.is_zero():
            on_letters[i] = val
    return DerivationD(algebra, on_algebra, on_letters)


def oracle_dual_differential_letter(algebra, module, letter):
    """d_{L^vee} g^vee = the weight-1 element with (d eta)(v) = d_A(eta(v))
    - (-1)^{|eta|} eta(d_L v)."""
    eta_degree = -module.degrees[letter]
    acc = algebra.zero()
    for j in range(module.rank):
        val = -(pair_dual(module, letter, module.differential_basis(j))).scale(sign_scalar(eta_degree))
        # d_A(eta(g_j)) = d_A(delta) = 0 on basis duals
        if val.is_zero():
            continue
        acc = acc + algebra.letter(j, val)
    return acc


def scalar_add_product(coeffs, base, i, j, s):
    """coeffs += s * (e_i e_j), one reduced ``Scalar`` product and sum per
    structure constant."""
    for k, ck in base.product_basis(i, j).items():
        t = s * ck
        old = coeffs.get(k)
        coeffs[k] = t if old is None else old + t


def scalar_collect(alg, acc):
    """The SymElement of a {word: {basis index: Scalar}} accumulator whose
    words are sorted words of alg within its cap."""
    return _normalized(alg, {w: AlgebraElement(alg.base, coeffs) for w, coeffs in acc.items()})


def scalar_base_mul(x, y):
    """x * y in the base, one Scalar product and sum per structure constant."""
    acc = {}
    for i, ci in x.items():
        for j, cj in y.items():
            scalar_add_product(acc, x.algebra, i, j, ci * cj)
    return AlgebraElement(x.algebra, acc)


def scalar_base_d(x):
    """d_A x, one Scalar product and sum per coefficient of a basis differential."""
    acc = {}
    for i, c in x.items():
        for k, ck in x.algebra.differential_basis(i).items():
            acc[k] = acc.get(k, Scalar.zero()) + c * ck
    return AlgebraElement(x.algebra, acc)


def _scaled(coeffs, base, degree, scale):
    """{b: (-1)^{|e_b| degree} scale x} for the coefficients x e_b given."""
    return {b: -x * scale if base.degrees[b] * degree & 1 else x * scale for b, x in coeffs}


def scalar_letter_transpose(alg, table, degrees, exponents, weights):
    """{word: {i: AlgebraElement}}: ``algebroid._letter_transpose`` with one
    Scalar product per entry, (-1)^{exponents[i] + |e_b| degrees[i]} kappa(w) x."""
    out = {}
    for i, el in table.items():
        for w, c in el.items():
            if len(w) in weights:
                scale = Scalar.rational(_word_constant(alg, w)) * sign_scalar(exponents[i])
                out.setdefault(w, {})[i] = AlgebraElement(alg.base, _scaled(c.items(), alg.base, degrees[i], scale))
    return out


def scalar_word_transpose(alg, entries, degrees, exponents):
    """``algebroid._word_transpose`` with one Scalar product per entry,
    (-1)^{exponents[i] + |e_b| degrees[i]} x / kappa(w)."""
    out = {}
    for w, i, value in entries:
        scale = Scalar.rational(1, _word_constant(alg, w)) * sign_scalar(exponents[i])
        out.setdefault(i, {})[w] = AlgebraElement(alg.base, _scaled(value.items(), alg.base, degrees[i], scale))
    return {i: SymElement(alg, words) for i, words in out.items()}


def _row_from(acc):
    """The row of a {word: {basis index: Scalar}} accumulator: its words in
    order, each with its sorted nonzero (basis index, Scalar) pairs."""
    row = []
    for w in sorted(acc):
        coeffs = tuple(sorted((k, c) for k, c in acc[w].items() if not c.is_zero()))
        if coeffs:
            row.append((w, coeffs))
    return tuple(row)


def oracle_row(D, w, i):
    """D(e_i w) by the Leibniz rule, one ``Scalar`` product and sum at a time.

    D(e_i) = sum (c e_k) v contributes (c e_k) sort(v w) with the sort sign
    only; for w = prefix x rest and D(x) = sum (c e_j) v the letter x
    contributes (-1)^(D.degree (|e_i| + |prefix|) + |e_j| |prefix| + s)
    (c e_i e_j) sort(prefix v rest), a run of m equal letters once with
    weight m.  Terms over the cap are skipped one by one."""
    alg = D.algebra
    base = alg.base
    degrees = base.degrees
    letter_degrees = alg.letter_degrees
    cap = alg.cap
    n = len(w)
    acc = {}
    val = D.on_algebra.get(i)
    if val is not None:
        for v, c in val.data.items():
            if len(v) + n > cap:
                continue
            merged = _sort_word(letter_degrees, v + w)
            if merged is None:
                continue
            word, exponent = merged
            coeffs = acc.setdefault(word, {})
            for k, ck in c.coeffs:
                t = -ck if exponent & 1 else ck
                old = coeffs.get(k)
                coeffs[k] = t if old is None else old + t
    pos = 0
    prefix_degree = 0
    while pos < n:
        x = w[pos]
        end = pos + 1
        while end < n and w[end] == x:
            end += 1
        val = D.on_letters.get(x)
        if val is not None:
            prefix, rest = w[:pos], w[pos + 1 :]
            m = ONE if end == pos + 1 else Scalar.rational(end - pos)
            shift = D.degree * (degrees[i] + prefix_degree)
            for v, c in val.data.items():
                if len(v) + n - 1 > cap:
                    continue
                merged = _sort_word(letter_degrees, prefix + v + rest)
                if merged is None:
                    continue
                word, exponent = merged
                coeffs = acc.setdefault(word, {})
                exponent += shift
                for j, cj in c.coeffs:
                    t = cj if m is ONE else cj * m
                    if (exponent + degrees[j] * prefix_degree) & 1:
                        t = -t
                    scalar_add_product(coeffs, base, i, j, t)
        prefix_degree += letter_degrees[x] * (end - pos)
        pos = end
    return _row_from(acc)


def oracle_apply(D, element):
    """D(element) as the sum of s times ``oracle_row(D, w, i)`` over the terms
    s e_i w of element, added one ``Scalar`` at a time."""
    acc = {}
    for w, a in element.items():
        for i, s in a.items():
            for v, coeffs in oracle_row(D, w, i):
                out = acc.setdefault(v, {})
                for k, c in coeffs:
                    t = c if s is ONE else c * s
                    old = out.get(k)
                    out[k] = t if old is None else old + t
    return scalar_collect(D.algebra, acc)


def oracle_square(D):
    """D o D on every generator, through ``oracle_apply``."""
    return _on_generators(D.algebra, lambda x: oracle_apply(D, oracle_apply(D, x)), 2 * D.degree)


def oracle_exp_series(phi, element, sign):
    """sum_k (sign phi)^k(element) / k! through ``oracle_apply``, up to cap + 1 powers."""
    total = term = element
    for k in range(1, element.algebra.cap + 2):
        term = oracle_apply(phi, term)
        if term.is_zero():
            break
        term = term.scale(Scalar.rational(sign, k))
        total = total + term
    return total


def oracle_conjugate(Phi, D):
    """Phi o D o Phi^{-1} on every generator, through ``oracle_apply``."""
    phi = Phi.phi

    def value(x):
        return oracle_exp_series(phi, oracle_apply(D, oracle_exp_series(phi, x, -1)), 1)

    return _on_generators(D.algebra, value, D.degree)


def oracle_value_terms(D):
    """The stored values of D as (on_algebra, on_letters) term tables:
    {index: ((word, length, coefficients), ...)}, shortest words first."""

    def terms(value):
        return tuple(sorted(((v, len(v), a.coeffs) for v, a in value.items()), key=lambda term: term[1]))

    return {i: terms(v) for i, v in D.on_algebra.items()}, {i: terms(v) for i, v in D.on_letters.items()}


# marks a concatenation the memo of ``oracle_walk`` has not met
_UNSEEN = object()


def oracle_walk(D, terms):
    """sum s D(e_i w) over the (word, coefficient) pairs s e_i w given, as
    the unreduced triples {word: Sums} of ``DerivationD._walk``: every
    substitution concatenates prefix + v + rest (v + w on the base) and
    sorts it with its sign, each concatenation once per call."""
    alg = D.algebra
    base = alg.base
    degrees = base.degrees
    letter_degrees = alg.letter_degrees
    odd = D.degree & 1
    sorted_words = {}
    on_algebra, on_letters = oracle_value_terms(D)
    acc = {}
    for w, a in terms:
        pairs = a.coeffs
        n = len(w)
        room = alg.cap - n
        for i, s in pairs:
            for v, length, coeffs in on_algebra.get(i, ()):
                if length > room:
                    break
                letters = v + w
                merged = sorted_words.get(letters, _UNSEEN)
                if merged is _UNSEEN:
                    merged = sorted_words[letters] = _sort_word(letter_degrees, letters)
                if merged is None:
                    continue
                word, exponent = merged
                out = acc.setdefault(word, {})
                t = -1 if exponent & 1 else 1
                _add_multiple(out, coeffs, t * s.n_re, t * s.n_im, s.den)
        room += 1
        pos = 0
        prefix_degree = 0
        while pos < n:
            x = w[pos]
            end = pos + 1
            while end < n and w[end] == x:
                end += 1
            values = on_letters.get(x)
            if values is not None:
                prefix, rest = w[:pos], w[pos + 1 :]
                m = end - pos
                shift = odd * prefix_degree
                for v, length, coeffs in values:
                    if length > room:
                        break
                    letters = prefix + v + rest
                    merged = sorted_words.get(letters, _UNSEEN)
                    if merged is _UNSEEN:
                        merged = sorted_words[letters] = _sort_word(letter_degrees, letters)
                    if merged is None:
                        continue
                    word, exponent = merged
                    out = acc.setdefault(word, {})
                    for i, s in pairs:
                        t = -m if (exponent + shift + odd * degrees[i]) & 1 else m
                        _add_product(out, base, i, coeffs, prefix_degree, t * s.n_re, t * s.n_im, s.den)
            prefix_degree += letter_degrees[x] * (end - pos)
            pos = end
    return acc


def oracle_weight_raising_derivation(rng, alg, density: float = 0.7) -> DerivationD:
    """A random degree-0 derivation raising weight by at least one, drawn
    with a Der(A) solve for every degree k in the base's degree span."""
    base = alg.base
    on_algebra = {i: alg.zero() for i in range(base.dim)}
    lo, hi = base.degree_range()
    for k in range(lo - hi, hi - lo + 1):
        ders = algebra_derivation_basis(base, k)
        if not ders:
            continue
        for r in range(1, alg.cap + 1):
            for w in alg.words_of_weight(r):
                coeff_degree = -k - alg.word_degree(w)
                cands = [b for b in range(base.dim) if base.degrees[b] == coeff_degree]
                if not cands or rng.random() > density:
                    continue
                for delta in ders:
                    if rng.random() > density:
                        continue
                    u = alg.word(w, base.basis_element(rng.choice(cands)).scale(rng.scalar()))
                    for i in range(base.dim):
                        val = delta.value_on(i)
                        if val.is_zero():
                            continue
                        on_algebra[i] = on_algebra[i] + u * alg.scalar(val)
    words = [w for r in range(2, alg.cap + 1) for w in alg.words_of_weight(r)]
    on_letters = {}
    for i in range(alg.n_letters):
        parts = {}
        for w in words:
            if rng.random() > density:
                continue
            need = alg.letter_degrees[i] - alg.word_degree(w)
            cands = [b for b in range(base.dim) if base.degrees[b] == need]
            if cands:
                parts[w] = base.basis_element(rng.choice(cands)).scale(rng.scalar())
        on_letters[i] = SymElement(alg, parts)
    return DerivationD(alg, on_algebra, on_letters, degree=0, check=False)
