"""Finitely generated free graded modules over a BaseAlgebra.

Elements are written with coefficients on the left: v = sum_i a_i . g_i,
an ``algebra.Combination`` keyed by generator index whose coefficients are
elements of the base; a term a_i . g_i has degree |a_i| + |g_i|.
The differential d_L is stored on generators and extended by the Leibniz
rule  d(a.g) = d_A(a).g + (-1)^{|a|} a.d_L(g).

Dual generators g_i^vee (of degree -|g_i|) pair against elements with the
Koszul rule  g^vee(a.g') = (-1)^{|a||g^vee|} a delta_{g,g'}.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from .algebra import AlgebraElement, BaseAlgebra, Combination, _degree_problem, _refuse_foreign
from .errors import BaseMismatch, KitError
from .scalars import sign_scalar


class ModuleElement(Combination):
    """Sparse element sum_i a_i . g_i of a FreeModule: generator index ->
    left coefficient, an element of the base."""

    __slots__ = ()
    module = Combination.space
    _key_count = attrgetter("rank")
    _key_kind = "generator"

    def coefficient(self, idx: int) -> AlgebraElement:
        for i, a in self.coeffs:
            if i == idx:
                return a
        return self.module.base.zero()

    def d(self) -> "ModuleElement":
        """Leibniz extension of d_L over d_A."""
        mod = self.module
        out = ModuleElement(mod, {i: a.d() for i, a in self.coeffs})
        for i, a in self.coeffs:
            for deg, ha in a.homogeneous_parts().items():
                out = out + mod.differential_basis(i).a_mul(ha.scale(sign_scalar(deg)))
        return out

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        names = self.module.gen_names
        return " + ".join(f"[{a}]*{names[i]}" for i, a in self.coeffs)


class FreeModule:
    """Free graded module over a BaseAlgebra with a degree-1 differential."""

    def __init__(
        self,
        base: BaseAlgebra,
        generators: Sequence[Tuple[str, int]],
        name: str = "L",
    ):
        self.base = base
        self.name = name
        self.gen_names = tuple(n for n, _ in generators)
        self.degrees = tuple(int(d) for _, d in generators)
        if len(set(self.gen_names)) != len(self.gen_names):
            raise KitError("duplicate generator names")
        self._differential: Dict[int, ModuleElement] = {}

    @property
    def rank(self) -> int:
        return len(self.gen_names)

    def zero(self) -> ModuleElement:
        return ModuleElement(self, {})

    def generator(self, i: int) -> ModuleElement:
        return ModuleElement(self, {i: self.base.one()})

    def differential_basis(self, i: int) -> ModuleElement:
        return self._differential.get(i, self.zero())

    def set_differential(self, differential: Mapping[int, ModuleElement]):
        """Used when a module and its differential must be built in two steps;
        an index that names no generator is refused."""
        _refuse_foreign("differential index", differential, self.rank, "generator")
        self._differential = {i: v for i, v in differential.items() if not v.is_zero()}

    def __repr__(self) -> str:
        return f"FreeModule({self.name}, rank={self.rank})"


def pair_dual(module: FreeModule, letter: int, v: ModuleElement) -> AlgebraElement:
    """Evaluate the dual generator g_letter^vee on v."""
    if v.module is not module:
        raise BaseMismatch("pairing across different modules")
    a = v.coefficient(letter)
    if a.is_zero():
        return module.base.zero()
    return _koszul_twist(a, -module.degrees[letter])


def _koszul_twist(x, degree: int):
    """x with its homogeneous part of degree d scaled by (-1)^{d * degree}; x is
    an algebra or a module element (degree d is then the total degree)."""
    if degree % 2 == 0:
        return x
    acc = None
    for deg, part in x.homogeneous_parts().items():
        if deg % 2:
            part = -part
        acc = part if acc is None else acc + part
    return x if acc is None else acc


def multilinear_extend(
    table_fn: Callable[[Tuple[int, ...]], object],
    op_degree: int,
    args: Sequence[ModuleElement],
    gen_degrees: Sequence[int],
    zero,
):
    """A-multilinear Koszul extension of a map f stored on generator tuples.

    This is the one implementation of the rule in the package: brackets,
    anchors, L-infinity morphism components and the evaluation of stored
    words all go through it.  With every argument split into homogeneous
    terms a_k g_k, the coefficients are pulled out slot by slot from the left:

        f(a_1 g_1, ..., a_n g_n)
            = (-1)^{sum_k |a_k| (op_degree + |g_1| + .. + |g_{k-1}|)}
              (a_1 ... a_n) . f(g_1, ..., g_n),

    op_degree being the degree of f (only its parity matters): a_k moves
    past f and g_1, ..., g_{k-1} and lands right of a_1 ... a_{k-1}.  This
    is multilinearity in the Koszul sense, which assumes the base algebra is
    graded commutative (a coefficient acts from either side up to that
    sign).  table_fn(gens) returns f(g_1, ..., g_n), or None where it
    vanishes; values must support ``a_mul``, negation and addition, and zero
    is returned when no term survives.  A unit coefficient is not multiplied
    in: that is exact, as ``BaseAlgebra`` refuses a break of the unit law,
    and it keeps a call on unit generators a plain table read.  The
    coefficients of a term are multiplied, left to right, only where the
    table has a value.
    """
    # (exponent, coefficient parts, generators, prefix degree) of every
    # choice of one term per argument so far, in slot-by-slot order
    partial: List[Tuple[int, Tuple[AlgebraElement, ...], Tuple[int, ...], int]] = [(0, (), (), 0)]
    for v in args:
        one = v.module.base.one()
        terms = []
        for i, a in v.coeffs:
            if a == one:
                terms.append((None, 0, i))
                continue
            for d, ha in a.homogeneous_parts().items():
                terms.append((None if ha == one else ha, d, i))
        partial = [
            (exponent, parts, gens + (i,), prefix + gen_degrees[i])
            if ha is None
            else (exponent + d * (op_degree + prefix), parts + (ha,), gens + (i,), prefix + gen_degrees[i])
            for exponent, parts, gens, prefix in partial
            for ha, d, i in terms
        ]
    total = None
    for exponent, parts, gens, _ in partial:
        val = table_fn(gens)
        if val is None:
            continue
        if parts:
            coeff = parts[0]
            for ha in parts[1:]:
                coeff = coeff * ha
            val = val.a_mul(coeff)
        if exponent & 1:
            val = -val
        total = val if total is None else total + val
    return zero if total is None else total


def validate_module(module: FreeModule) -> list[str]:
    """Check d_L degree bookkeeping and d_L^2 = 0 on all generators."""
    problems: list[str] = []
    for i in range(module.rank):
        dv = module.differential_basis(i)
        problem = _degree_problem(f"d({module.gen_names[i]})", dv, module.degrees[i] + 1)
        if problem:
            problems.append(problem)
        if not dv.d().is_zero():
            problems.append(f"d^2 != 0 on generator {module.gen_names[i]}")
    return problems
