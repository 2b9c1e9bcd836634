"""Model builders that only the tests use: two more base algebras, the
sample-base trio, random algebroid and CE-derivation tables, the gl_2 DGLAs
and a module with drawn degrees.

``Rng`` extends the seeded ``fixtures.Rng`` with the draws of algebra and
module elements these builders make; it draws the same numbers, so a model
built with it equals the one ``fixtures.Rng`` would give.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from algebroidkit import fixtures
from algebroidkit.algebra import AlgebraElement, BaseAlgebra
from algebroidkit.algebroid import AlgebroidStructure, d0_derivation
from algebroidkit.fixtures import (
    _random_square_zero_differential,
    _random_words,
    _words_from,
    exterior_base,
    kodaira_base,
    lambda_eps,
    nontrivial_dga,
)
from algebroidkit.linfty import LInftyAlgebra, algebra_derivation_basis
from algebroidkit.modules import FreeModule, ModuleElement
from algebroidkit.scalars import Scalar
from algebroidkit.signs import _nonvanishing_keys
from algebroidkit.symtensor import DerivationD, SymAlgebra


# ---------------------------------------------------------------------------
# base algebras
# ---------------------------------------------------------------------------


def trivial_base() -> BaseAlgebra:
    """The ground field as a one-dimensional dga."""
    return BaseAlgebra([("1", 0)], unit=0, products={})


def eps_square_base() -> BaseAlgebra:
    """Lambda[e, f] on two odd degree-1 generators, d = 0."""
    return exterior_base([("e", 1), ("f", 1)])


def sample_bases() -> List[BaseAlgebra]:
    """The standard trio of base dgas used across acceptance fixtures."""
    return [lambda_eps(), nontrivial_dga(), kodaira_base()]


# ---------------------------------------------------------------------------
# seeded random data
# ---------------------------------------------------------------------------


class Rng(fixtures.Rng):
    """``fixtures.Rng`` with draws of algebra and module elements."""

    def algebra_element(
        self, base: BaseAlgebra, degree: Optional[int] = None, zero_chance: float = 0.3
    ) -> AlgebraElement:
        coeffs = {}
        for i in range(base.dim):
            if degree is not None and base.degrees[i] != degree:
                continue
            if self.r.random() < zero_chance:
                continue
            coeffs[i] = self.scalar()
        return AlgebraElement(base, coeffs)

    def module_element(
        self, module: FreeModule, degree: Optional[int] = None, zero_chance: float = 0.3
    ) -> ModuleElement:
        coeffs = {}
        for i in range(module.rank):
            if degree is None:
                a = self.algebra_element(module.base, None, zero_chance)
            else:
                a = self.algebra_element(module.base, degree - module.degrees[i], zero_chance)
            if not a.is_zero():
                coeffs[i] = a
        return ModuleElement(module, coeffs)

    def randint(self, a, b):
        return self.r.randint(a, b)


def random_algebroid(
    rng: Rng,
    base: BaseAlgebra,
    carrier: FreeModule,
    bracket_cap: int = 4,
    derivation_anchors: bool = True,
    density: float = 0.5,
):
    """Random degree-consistent tables (not required to satisfy Jacobi).

    With derivation_anchors the anchor slices {key|-} are honest derivations
    of the base (coefficient times a Der(A) basis element), which is what
    ``validate`` demands; without it the raw tables are filled freely.
    """
    S = AlgebroidStructure(base, carrier, bracket_cap=bracket_cap)
    for n in range(2, bracket_cap + 1):
        for key in _nonvanishing_keys(carrier.degrees, n):
            if rng.random() > density:
                continue
            want = sum(carrier.degrees[i] for i in key) + 1
            val = rng.module_element(carrier, degree=want, zero_chance=0.4)
            if not val.is_zero():
                S.set_bracket(n, key, val)
    lo, hi = base.degree_range()
    der_cache = {}
    for n in range(2, S.anchor_cap + 1):
        for key in _nonvanishing_keys(carrier.degrees, n - 1):
            if rng.random() > density:
                continue
            op_degree = sum(carrier.degrees[i] for i in key) + 1
            if derivation_anchors:
                for k in range(lo - hi, hi - lo + 1):
                    if k not in der_cache:
                        der_cache[k] = algebra_derivation_basis(base, k)
                    ders = der_cache[k]
                    if not ders or rng.random() < 0.5:
                        continue
                    delta = rng.choice(ders)
                    coeff = rng.algebra_element(base, degree=op_degree - k, zero_chance=0.2)
                    if coeff.is_zero():
                        continue
                    for b in range(base.dim):
                        val = coeff * delta.value_on(b)
                        if not val.is_zero():
                            val = val + S.anchors.get(n, {}).get((key, b), base.zero())
                            S.set_anchor(n, key, b, val)
            else:
                for b in range(base.dim):
                    if b == base.unit:
                        continue
                    want = op_degree + base.degrees[b]
                    val = rng.algebra_element(base, degree=want, zero_chance=0.5)
                    if not val.is_zero():
                        S.set_anchor(n, key, b, val)
    return S


def random_ce_derivation(rng: Rng, base: BaseAlgebra, carrier: FreeModule, cap: int = 4, density: float = 0.5):
    """Random degree-1 word data whose weight-0 part is the bare differential.

    The unit value stays zero, matching what any honest derivation satisfies;
    everything else is free, so the result generally does not square to zero.
    """
    alg = SymAlgebra.over_module(carrier, cap=cap)
    D0 = d0_derivation(alg, carrier)
    on_algebra = dict(D0.on_algebra)
    on_letters = dict(D0.on_letters)

    for b in range(base.dim):
        if b == base.unit:
            continue
        extra = _random_words(rng, alg, _words_from(alg, 1), base.degrees[b] + 1, density)
        if not extra.is_zero():
            on_algebra[b] = on_algebra.get(b, alg.zero()) + extra
    for i in range(alg.n_letters):
        extra = _random_words(rng, alg, _words_from(alg, 2), alg.letter_degrees[i] + 1, density)
        if not extra.is_zero():
            on_letters[i] = on_letters.get(i, alg.zero()) + extra
    return DerivationD(alg, on_algebra, on_letters)


# ---------------------------------------------------------------------------
# matrix DGLAs
# ---------------------------------------------------------------------------


def _gl2_structure() -> List[Tuple[int, int, Dict[int, int]]]:
    """Commutators of the 2x2 matrix units E11, E12, E21, E22."""

    def unit(a, b):
        return {(a, b): 1}

    def mul(x, y):
        out: Dict[Tuple[int, int], int] = {}
        for (a, b), c in x.items():
            for (p, q), d in y.items():
                if b == p:
                    out[(a, q)] = out.get((a, q), 0) + c * d
        return {k: v for k, v in out.items() if v}

    units = [unit(0, 0), unit(0, 1), unit(1, 0), unit(1, 1)]
    index = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    out = []
    for i in range(4):
        for j in range(4):
            bracket = mul(units[i], units[j])
            for k, v in mul(units[j], units[i]).items():
                bracket[k] = bracket.get(k, 0) - v
            bracket = {index[k]: v for k, v in bracket.items() if v}
            if bracket:
                out.append((i, j, bracket))
    return out


def matrix_dgla() -> LInftyAlgebra:
    """gl_2 in degree 0 over the ground field: l_1 = 0, l_2 = commutator."""
    base = trivial_base()
    names = ["E11", "E12", "E21", "E22"]
    carrier = FreeModule(base, [(n, 0) for n in names], name="gl2")
    L = LInftyAlgebra(carrier, arity_cap=4)
    for i, j, bracket in _gl2_structure():
        if i < j:
            value = ModuleElement(
                carrier, {k: base.one().scale(Scalar(v)) for k, v in bracket.items()}
            )
            L.set_bracket(2, (i, j), value)
    return L


def cone_dgla() -> LInftyAlgebra:
    """The cone of gl_2: x_i in degree 0, y_i in degree -1, d(y_i) = x_i.

    Brackets: [x_i, x_j] and [x_i, y_j] follow the gl_2 structure constants,
    [y, y] = 0.  A genuine DGLA with nonzero differential.
    """
    base = trivial_base()
    names = ["x11", "x12", "x21", "x22"]
    gens = [(n, 0) for n in names] + [(n.replace("x", "y"), -1) for n in names]
    carrier = FreeModule(base, gens, name="cone(gl2)")
    carrier.set_differential(
        {4 + i: ModuleElement(carrier, {i: base.one()}) for i in range(4)}
    )
    L = LInftyAlgebra(carrier, arity_cap=4)
    for i, j, bracket in _gl2_structure():
        value_x = ModuleElement(
            carrier, {k: base.one().scale(Scalar(v)) for k, v in bracket.items()}
        )
        value_y = ModuleElement(
            carrier, {4 + k: base.one().scale(Scalar(v)) for k, v in bracket.items()}
        )
        if i < j:
            L.set_bracket(2, (i, j), value_x)
        L.set_bracket(2, (i, 4 + j), value_y)
    return L


def standard_module(base: BaseAlgebra, rank: int = 2, seed: int = 7) -> FreeModule:
    """A free module with random degrees and a valid differential."""
    rng = Rng(seed)
    degrees = [rng.randint(-1, 2) for _ in range(rank)]
    module = FreeModule(base, [(f"g{i}", degrees[i]) for i in range(rank)])
    _random_square_zero_differential(rng, base, module)
    return module
