"""Programmatic fixtures: small exact dgas, modules and random data.

These builders make the shipped fixture corpus (``write_fixture_corpus``),
the random automorphism of the ``mc`` command (``random_unipotent``) and the
generated models of the benchmark (``random_geometric_model``).  All
randomness flows through a seeded random.Random so every run is reproducible.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .algebra import BaseAlgebra
from .algebroid import AlgebroidStructure, d0_derivation, extract_structure
from .geometry import TENSOR_FAMILIES, GeometricModel, SplitFrame
from .linfty import algebra_derivation_basis
from .modelio import serialize_model
from .modules import FreeModule, ModuleElement
from .scalars import ONE, Scalar, sign_scalar
from .signs import _sort_word
from .symtensor import (
    DerivationD,
    FilteredAutomorphism,
    SymAlgebra,
    SymElement,
    conjugate,
)


# ---------------------------------------------------------------------------
# deterministic base algebras
# ---------------------------------------------------------------------------


def exterior_base(generators: Sequence[Tuple[str, int]]) -> BaseAlgebra:
    """Exterior-type algebra on odd generators (squares vanish), d = 0.

    Basis: all strictly increasing monomials in the generators.
    """
    for name, deg in generators:
        if deg % 2 == 0:
            raise ValueError(f"exterior generator {name} must have odd degree")
    n = len(generators)
    subsets: List[Tuple[int, ...]] = []
    for mask in range(1 << n):
        subsets.append(tuple(i for i in range(n) if mask >> i & 1))
    subsets.sort(key=lambda s: (len(s), s))
    index = {s: k for k, s in enumerate(subsets)}

    def label(s):
        return "*".join(generators[i][0] for i in s) if s else "1"

    degrees = [deg for _, deg in generators]
    basis = [(label(s), sum(degrees[i] for i in s)) for s in subsets]
    products = {}
    for s1 in subsets:
        for s2 in subsets:
            if set(s1) & set(s2):
                continue
            merged, exponent = _sort_word(degrees, s1 + s2)
            products[(index[s1], index[s2])] = {index[merged]: sign_scalar(exponent)}
    return BaseAlgebra(basis, unit=index[()], products=products)


def lambda_eps() -> BaseAlgebra:
    """The two-dimensional exterior algebra on one odd generator."""
    return exterior_base([("e", 1)])


def truncated_poly(name: str = "u", degree: int = 2, power: int = 2) -> BaseAlgebra:
    """K[u]/(u^power) with |u| = degree (even), d = 0."""
    if degree % 2:
        raise ValueError("truncated polynomial generator must have even degree")
    basis = [("1", 0)] + [
        (name if k == 1 else f"{name}^{k}", degree * k) for k in range(1, power)
    ]
    products = {}
    for i in range(power):
        for j in range(power):
            if 0 < i + j < power:
                products[(i, j)] = {i + j: ONE}
            elif i + j >= power:
                products[(i, j)] = {}
    return BaseAlgebra(basis, unit=0, products=products)


def tensor_base(a: BaseAlgebra, b: BaseAlgebra) -> BaseAlgebra:
    """Graded tensor product a (x) b with the Koszul product sign."""
    basis = []
    for i, (na, da) in enumerate(zip(a.names, a.degrees)):
        for j, (nb, db) in enumerate(zip(b.names, b.degrees)):
            basis.append((f"{na}|{nb}", da + db))

    def idx(i, j):
        return i * b.dim + j

    products = {}
    for i1 in range(a.dim):
        for j1 in range(b.dim):
            for i2 in range(a.dim):
                for j2 in range(b.dim):
                    pa = a.product_basis(i1, i2)
                    pb = b.product_basis(j1, j2)
                    if pa.is_zero() or pb.is_zero():
                        continue
                    sign = sign_scalar(b.degrees[j1] * a.degrees[i2])
                    out: Dict[int, Scalar] = {}
                    for ka, ca in pa.items():
                        for kb, cb in pb.items():
                            out[idx(ka, kb)] = ca * cb * sign
                    products[(idx(i1, j1), idx(i2, j2))] = out
    differential: Dict[int, Dict[int, Scalar]] = {}
    for i in range(a.dim):
        for j in range(b.dim):
            out: Dict[int, Scalar] = {}
            for k, c in a.differential_basis(i).items():
                out[idx(k, j)] = out.get(idx(k, j), Scalar.zero()) + c
            for k, c in b.differential_basis(j).items():
                key = idx(i, k)
                out[key] = out.get(key, Scalar.zero()) + c * sign_scalar(a.degrees[i])
            if out:
                differential[idx(i, j)] = out
    return BaseAlgebra(basis, unit=idx(a.unit, b.unit), products=products, differential=differential)


def eps_poly_base() -> BaseAlgebra:
    """Lambda[e] (x) K[u]/(u^2): dimension 4, one odd and one even generator."""
    return tensor_base(lambda_eps(), truncated_poly("u", 2, 2))


def kodaira_base() -> BaseAlgebra:
    """Lambda[e] (x) K[u]/(u^2) twisted by d(e) = u (|e| = 1, |u| = 2).

    d^2 = 0 because d(u) = 0, and Leibniz survives the truncation since
    u^2 = 0; the unique four-dimensional sample base whose differential
    hits an even element.
    """
    plain = eps_poly_base()
    return BaseAlgebra(
        list(zip(plain.names, plain.degrees)),
        unit=plain.unit,
        products={
            (i, j): dict(plain.product_basis(i, j).items())
            for i in range(plain.dim)
            for j in range(plain.dim)
        },
        differential={plain.index_of("e|1"): {plain.index_of("1|u"): ONE}},
    )


def nontrivial_dga() -> BaseAlgebra:
    """Lambda[e] (x) K[x]/(x^2) with d(x) = x*e, d(e) = 0; |x| = 0, |e| = 1.

    The smallest base in the suite with a genuinely nonzero differential;
    Leibniz holds because x^2 = 0 kills both sides of d(x*x).
    """
    basis = [("1", 0), ("e", 1), ("x", 0), ("x*e", 1)]
    products = {
        (1, 1): {},
        (1, 2): {3: ONE},
        (2, 1): {3: ONE},
        (2, 2): {},
        (2, 3): {},
        (3, 2): {},
        (1, 3): {},
        (3, 1): {},
        (3, 3): {},
    }
    differential = {2: {3: ONE}}
    return BaseAlgebra(basis, unit=0, products=products, differential=differential)


# ---------------------------------------------------------------------------
# seeded random data
# ---------------------------------------------------------------------------


class Rng:
    """Thin deterministic wrapper used by all randomized fixtures."""

    def __init__(self, seed: int):
        self.r = random.Random(seed)

    def scalar(self, zero_chance: float = 0.0) -> Scalar:
        if zero_chance and self.r.random() < zero_chance:
            return Scalar.zero()
        num = self.r.randint(-3, 3)
        den = self.r.randint(1, 3)
        re = Fraction(num, den)
        im = Fraction(0)
        if self.r.random() < 0.3:
            im = Fraction(self.r.randint(-2, 2), self.r.randint(1, 2))
        if re == 0 and im == 0:
            re = Fraction(1)
        return Scalar(re, im)

    def choice(self, seq):
        return self.r.choice(seq)

    def random(self):
        return self.r.random()


def _random_words(rng: Rng, alg: SymAlgebra, words, degree: int, density: float) -> SymElement:
    """A random element of the given degree on the given (word, word degree)
    pairs: each word, kept with chance density, takes a random basis element
    of the degree it needs times a random scalar; a word no basis element
    fits stays zero."""
    base = alg.base
    of_degree = _of_degree(base)
    parts = {}
    for w, d in words:
        if rng.random() > density:
            continue
        cands = of_degree.get(degree - d)
        if cands:
            parts[w] = base.basis_element(rng.choice(cands)).scale(rng.scalar())
    return SymElement(alg, parts)


def _of_degree(base: BaseAlgebra) -> Dict[int, List[int]]:
    """{degree: the basis indices of that degree, in order}."""
    out: Dict[int, List[int]] = {}
    for b, d in enumerate(base.degrees):
        out.setdefault(d, []).append(b)
    return out


def _words_from(alg: SymAlgebra, weight: int) -> List[Tuple[Tuple[int, ...], int]]:
    """The words of alg from the given weight up to its cap, by weight, each
    with its degree."""
    return [(w, alg.word_degree(w)) for r in range(weight, alg.cap + 1) for w in alg.words_of_weight(r)]


def random_weight_raising_derivation(rng: Rng, alg: SymAlgebra, density: float = 0.7) -> DerivationD:
    """A genuine degree-0 derivation raising weight by at least one.

    Letter values are free; base values are built as sums u . delta(a) with
    u a degree (-|delta|) element of positive weight and delta an honest
    derivation of the base algebra, which keeps the table Leibniz-compatible.
    The derivations of degree k are solved only when some word w has a basis
    element of the degree -k - |w| its coefficient needs: no other degree
    is read, and it would draw nothing.
    """
    base = alg.base
    on_algebra: Dict[int, SymElement] = {i: alg.zero() for i in range(base.dim)}
    of_degree = _of_degree(base)
    word_degrees = _words_from(alg, 1)
    lo, hi = base.degree_range()
    for k in range(lo - hi, hi - lo + 1):
        # each word a coefficient fits, with the basis elements that fit it
        fitting = [(w, of_degree[-k - d]) for w, d in word_degrees if -k - d in of_degree]
        ders = algebra_derivation_basis(base, k) if fitting else None
        if not ders:
            continue
        for w, cands in fitting:
            if rng.random() > density:
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
    words = [(w, d) for w, d in word_degrees if len(w) >= 2]
    on_letters = {i: _random_words(rng, alg, words, alg.letter_degrees[i], density) for i in range(alg.n_letters)}
    return DerivationD(alg, on_algebra, on_letters, degree=0, check=False)


def random_unipotent(rng: Rng, alg: SymAlgebra, density: float = 0.25) -> FilteredAutomorphism:
    """exp(phi) for a random weight-raising degree-0 derivation phi; Phi and
    Phi^{-1} are applied as the series of phi's powers."""
    return FilteredAutomorphism(random_weight_raising_derivation(rng, alg, density))


# ---------------------------------------------------------------------------
# algebroid fixtures
# ---------------------------------------------------------------------------


def conjugation_oracle_structure(rng: Rng, carrier: FreeModule, cap: int = 4):
    """A genuinely valid algebroid: extract(Phi D0 Phi^-1) for Phi = exp(phi),
    phi a random weight-raising derivation (``random_unipotent``)."""
    alg = SymAlgebra.over_module(carrier, cap=cap)
    D0 = d0_derivation(alg, carrier)
    Phi = random_unipotent(rng, alg)
    D = conjugate(Phi, D0)
    return extract_structure(D, carrier, bracket_cap=cap), D, Phi


# ---------------------------------------------------------------------------
# geometric model fixtures
# ---------------------------------------------------------------------------


def _random_dhat(rng: Rng, base: BaseAlgebra, amb: SymAlgebra, a: int, density: float = 0.6):
    """dhat = sum_i lambda_i . delta_i with delta_i in Der(A) of degree
    -|lambda_i|: a genuine degree-0 Leibniz map valued in tangent letters."""
    out = {i: amb.zero() for i in range(base.dim)}
    for letter in range(a):
        k = -amb.letter_degrees[letter]
        ders = algebra_derivation_basis(base, k)
        for delta in ders:
            if rng.random() > density:
                continue
            s = rng.scalar()
            for i in range(base.dim):
                val = delta.value_on(i)
                if val.is_zero():
                    continue
                out[i] = out[i] + amb.letter(letter, val.scale(s))
    return {i: v for i, v in out.items() if not v.is_zero()}


def _random_table(
    rng: Rng,
    alg: SymAlgebra,
    degrees: Sequence[int],
    words: Sequence[Tuple[Tuple[int, ...], int]],
    density: float,
):
    """Random A-linear table: index i -> span of the given (word, word
    degree) pairs, of degree degrees[i]; zero values are left out."""
    out = {}
    for i, want in enumerate(degrees):
        el = _random_words(rng, alg, words, want, density)
        if not el.is_zero():
            out[i] = el
    return out


def random_geometric_model(
    rng: Rng,
    base: BaseAlgebra,
    tangent_degrees: Sequence[int],
    normal_degrees: Sequence[int],
    cap: int = 4,
    density: float = 0.5,
    families: Sequence[str] = tuple(fam.name for fam in TENSOR_FAMILIES),
    seed_modules: int = 3,
):
    """A generic model: random degree-valid tensors, usually non-integrable.

    The families are drawn in ``TENSOR_FAMILIES`` order, a weighted one
    weight by weight up to the cap."""
    tangent = mixed_module(base, tangent_degrees, name="Tm", seed=seed_modules, prefix="t")
    normal = mixed_module(base, normal_degrees, name="Nm", seed=seed_modules + 1, prefix="n")
    frame = SplitFrame(base, tangent, normal, cap=cap)
    tangent_letters = set(frame.amb.letter_names[: frame.a])
    tensors = {}
    for fam in TENSOR_FAMILIES:
        if fam.name not in families:
            continue
        if fam.index == "base":  # dhat must satisfy the Leibniz rule
            tensors[fam.name] = _random_dhat(rng, base, frame.amb, frame.a, density)
            continue
        alg = frame.values_algebra(fam)
        _, index_degrees = frame.index_set(fam)
        degrees = [d + fam.shift for d in index_degrees]
        m = fam.bidegree[0]
        tables = {}
        for k in range(fam.weight, cap + 1) if fam.weighted else [fam.weight]:
            words = [
                (w, alg.word_degree(w)) for w in alg.words_of_weight(k)
                if sum(alg.letter_names[i] in tangent_letters for i in w) == m
            ]
            table = _random_table(rng, alg, degrees, words, density)
            if table:
                tables[k] = table
        tensors[fam.name] = tables if fam.weighted else tables.get(fam.weight, {})
    return GeometricModel(base, tangent, normal, cap=cap, **tensors)


def trivial_model(cap: int = 4):
    """All tensors zero over Lambda[e]: the differential collapses to d0."""
    base = lambda_eps()
    tangent = FreeModule(base, [("t0", 0)], name="Tm")
    normal = FreeModule(base, [("n0", 0)], name="Nm")
    return GeometricModel(base, tangent, normal, cap=cap)


def eps_nilpotent_model(cap: int = 4):
    """Rank-1 curved model over Lambda[e] whose square vanishes by e^2 = 0."""
    base = lambda_eps()
    tangent = FreeModule(base, [("t0", 0)], name="Tm")
    normal = FreeModule(base, [("n0", 0)], name="Nm")
    frame = SplitFrame(base, tangent, normal, cap=cap)
    e = base.from_names({"e": ONE})
    r2 = SymElement(frame.nor, {(0, 0): e})
    return GeometricModel(
        base, tangent, normal, cap=cap, curv_perp={2: {0: r2}}
    )


def diagonal_model(rng: Rng, base: BaseAlgebra, degrees: Sequence[int], cap: int = 4):
    """Diagonal regime: normal = tangent copy, beta = shape = 0, only
    normal curvature; anchors vanish and the differential is Kapranov's
    (``geometry.build_kapranov``)."""
    g = random_geometric_model(
        rng,
        base,
        list(degrees),
        list(degrees),
        cap=cap,
        families=("curv_perp",),
    )
    return g


# ---------------------------------------------------------------------------
# shipped fixture corpus
# ---------------------------------------------------------------------------


def fixture_corpus():
    """The deterministic model set shipped under fixtures/ (name -> object)."""
    corpus = {}
    corpus["trivial.geometric"] = trivial_model()
    corpus["rank1_curved.geometric"] = eps_nilpotent_model()
    corpus["rank2.geometric"] = random_geometric_model(
        Rng(71), kodaira_base(), [0, 1], [0, -1], cap=4, seed_modules=5
    )
    corpus["diagonal.geometric"] = diagonal_model(Rng(72), nontrivial_dga(), [0, 1], cap=4)
    corpus["generic.geometric"] = random_geometric_model(
        Rng(73), nontrivial_dga(), [0, 1], [0, -1], cap=4, seed_modules=6
    )

    base = nontrivial_dga()
    carrier = mixed_module(base, [0, 1], seed=5)
    abelian = AlgebroidStructure(base, carrier, bracket_cap=4)
    corpus["abelian.algebroid"] = abelian

    S, _, _ = conjugation_oracle_structure(Rng(36), mixed_module(base, [0, 1], seed=5), cap=4)
    corpus["conjugated.algebroid"] = S

    # a one-entry bump chosen so that the higher Jacobi identity fails
    carrier2 = mixed_module(base, [0, -1], seed=11)
    S2, _, _ = conjugation_oracle_structure(Rng(35), carrier2, cap=4)
    bump = ModuleElement(carrier2, {0: base.basis_element(0)})
    old = S2.brackets.get(3, {}).get((0, 0, 1), carrier2.zero())
    S2.set_bracket(3, (0, 0, 1), old + bump)
    corpus["perturbed.algebroid"] = S2
    return corpus


def write_fixture_corpus(directory: str) -> List[str]:
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, obj in fixture_corpus().items():
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_model(obj))
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


def _null_odd_closed(base: BaseAlgebra) -> List[int]:
    """Degree-1 closed basis elements with all pairwise (and self) products zero."""
    odd = [
        i
        for i in range(base.dim)
        if base.degrees[i] == 1 and base.differential_basis(i).is_zero()
    ]
    out: List[int] = []
    for i in odd:
        if all(base.product_basis(i, j).is_zero() for j in out + [i]):
            out.append(i)
    return out


def _random_square_zero_differential(rng: Rng, base: BaseAlgebra, module: FreeModule):
    """d(g_i) = c_i . g_i with c_i odd, closed and null-square: d^2 = 0 exactly."""
    pool = _null_odd_closed(base)
    if not pool:
        return
    diff = {}
    for i in range(module.rank):
        if rng.random() < 0.4:
            continue
        coeff = base.zero()
        for e in pool:
            if rng.random() < 0.6:
                coeff = coeff + base.basis_element(e).scale(rng.scalar())
        if not coeff.is_zero():
            diff[i] = ModuleElement(module, {i: coeff})
    module.set_differential(diff)


def mixed_module(
    base: BaseAlgebra,
    degrees: Sequence[int],
    name: str = "L",
    seed: int = 3,
    prefix: str = "g",
) -> FreeModule:
    """Free module with prescribed generator degrees and a valid differential."""
    rng = Rng(seed)
    module = FreeModule(base, [(f"{prefix}{i}", d) for i, d in enumerate(degrees)], name=name)
    _random_square_zero_differential(rng, base, module)
    return module
