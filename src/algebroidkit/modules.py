"""Finitely generated free graded modules over a BaseAlgebra.

Elements are written with coefficients on the left: v = sum_i a_i . g_i.
The differential d_L is stored on generators and extended by the Leibniz
rule  d(a.g) = d_A(a).g + (-1)^{|a|} a.d_L(g).

Dual generators g_i^vee (of degree -|g_i|) pair against elements with the
Koszul rule  g^vee(a.g') = (-1)^{|a||g^vee|} a delta_{g,g'}.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .algebra import AlgebraElement, BaseAlgebra, _degree_problem
from .errors import BaseMismatch, DegreeError, KitError
from .scalars import ONE, Scalar, sign_scalar


class ModuleElement:
    """Sparse element of a FreeModule: generator index -> left coefficient."""

    __slots__ = ("module", "coeffs")

    def __init__(self, module: "FreeModule", coeffs: Mapping[int, AlgebraElement]):
        cleaned = tuple(sorted((i, a) for i, a in coeffs.items() if not a.is_zero()))
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("ModuleElement is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self) -> Tuple[Tuple[int, AlgebraElement], ...]:
        return self.coeffs

    def coefficient(self, idx: int) -> AlgebraElement:
        for i, a in self.coeffs:
            if i == idx:
                return a
        return self.module.base.zero()

    def degree(self) -> Optional[int]:
        degs = set()
        for i, a in self.coeffs:
            for d in a.homogeneous_parts():
                degs.add(d + self.module.degrees[i])
        if not degs:
            return None
        if len(degs) > 1:
            raise DegreeError(f"module element not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def homogeneous_parts(self) -> Dict[int, "ModuleElement"]:
        parts: Dict[int, Dict[int, AlgebraElement]] = {}
        for i, a in self.coeffs:
            for d, ha in a.homogeneous_parts().items():
                tot = d + self.module.degrees[i]
                slot = parts.setdefault(tot, {})
                slot[i] = slot.get(i, self.module.base.zero()) + ha
        return {d: ModuleElement(self.module, m) for d, m in sorted(parts.items())}

    def _check(self, other: "ModuleElement"):
        if self.module is not other.module:
            raise BaseMismatch("elements of different modules")

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._check(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        acc = {i: a for i, a in self.coeffs}
        for i, a in other.coeffs:
            acc[i] = acc.get(i, self.module.base.zero()) + a
        return ModuleElement(self.module, acc)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + (-other)

    def __neg__(self) -> "ModuleElement":
        return _module_element(self.module, tuple((i, -a) for i, a in self.coeffs))

    def scale(self, s: Scalar) -> "ModuleElement":
        if s is ONE:
            return self
        if s.is_zero():
            return self.module.zero()
        return _module_element(self.module, tuple((i, a.scale(s)) for i, a in self.coeffs))

    def a_mul(self, a: AlgebraElement) -> "ModuleElement":
        """Left action a.v (no sign: coefficients already sit on the left)."""
        products = ((i, a * c) for i, c in self.coeffs)
        return _module_element(self.module, tuple((i, p) for i, p in products if p.coeffs))

    def d(self) -> "ModuleElement":
        """Leibniz extension of d_L over d_A."""
        mod = self.module
        acc: Dict[int, AlgebraElement] = {}

        def add(idx, val):
            acc[idx] = acc.get(idx, mod.base.zero()) + val

        for i, a in self.coeffs:
            add(i, a.d())
            for deg, ha in a.homogeneous_parts().items():
                signed = ha.scale(sign_scalar(deg))
                for j, b in mod.differential_basis(i).coeffs:
                    add(j, signed * b)
        return ModuleElement(mod, acc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModuleElement)
            and self.module is other.module
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((id(self.module), self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        names = self.module.gen_names
        return " + ".join(f"[{a}]*{names[i]}" for i, a in self.coeffs)


_new = object.__new__


def _module_element(module: "FreeModule", coeffs: Tuple[Tuple[int, AlgebraElement], ...]) -> ModuleElement:
    """The ModuleElement of (index, coefficient) pairs already sorted by index
    and nonzero: nothing is checked (as ``algebra._element``)."""
    out = _new(ModuleElement)
    object.__setattr__(out, "module", module)
    object.__setattr__(out, "coeffs", coeffs)
    return out


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

    def index_of(self, name: str) -> int:
        try:
            return self.gen_names.index(name)
        except ValueError:
            raise KitError(f"no generator named {name!r}") from None

    def zero(self) -> ModuleElement:
        return ModuleElement(self, {})

    def generator(self, i: int) -> ModuleElement:
        return ModuleElement(self, {i: self.base.one()})

    def element(self, mapping: Mapping[int, AlgebraElement]) -> ModuleElement:
        return ModuleElement(self, dict(mapping))

    def differential_basis(self, i: int) -> ModuleElement:
        return self._differential.get(i, self.zero())

    def set_differential(self, differential: Mapping[int, ModuleElement]):
        """Used when a module and its differential must be built in two steps."""
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
