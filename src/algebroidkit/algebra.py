"""Finite-dimensional graded commutative unital dgas over the Gaussian
rationals, and ``Combination``, the one element type of the kit.

Every element the kit computes with is a sparse sum sum_k c_k x_k over a
graded basis, stored as a ``Combination``, which alone implements the
element protocol.  Its four kinds: ``AlgebraElement`` (basis index ->
Scalar), ``modules.ModuleElement`` (generator index -> base coefficient),
``symtensor.SymElement`` (sorted word -> base coefficient) and
``linfty.AlgebraDerivation`` (basis index i -> the value P(e_i), a term of
degree |P(e_i)| - |e_i|, the degree of the map).

A BaseAlgebra is given by a named, graded basis, a sparse multiplication
table, a distinguished unit basis element and a degree-1 differential d_A.
The unit is structural: the constructor refuses a product that breaks the
unit law, a nonzero d_A(1) and a table index that names no basis element.
The other invariants (commutativity, associativity, Leibniz, d^2 = 0) are
checked by ``validate_base_algebra``, which reports violations with
witnesses instead of raising.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import BaseMismatch, DegreeError, KitError
from .scalars import MINUS_ONE, ONE, Scalar, Sums, _add_multiple, _reduced_items, sign_scalar


def _refuse_foreign(label: str, keys: Iterable, count: int, kind: str) -> None:
    """Refuse a key that names none of the count basis elements of a table:
    a KitError naming it.  Every table of the kit is checked here."""
    for k in keys:
        if k not in range(count):
            raise KitError(f"{label} {k!r} names no {kind}: there are {count}")


class Combination:
    """An immutable sparse sum sum_k c_k x_k over the graded basis of a space.

    ``coeffs`` holds the (key, coefficient) pairs, sorted by key, every
    coefficient nonzero; so equal sums have equal ``coeffs``.  A coefficient
    is a Scalar (``AlgebraElement``) or an AlgebraElement of the base (the
    other kinds); the degree of a term is the degree of its key
    (``_key_degree``) plus that of its coefficient.

    A kind supplies its space (the ``space`` slot, read under its own name
    too), the number and name of its keys, the degree of a key, and its own
    operations.  The constructor drops zero coefficients and refuses a key
    that names nothing; results built here go through ``_made``, which
    checks nothing.
    """

    __slots__ = ("space", "coeffs")

    # the number of keys of a space, and what a key names, for the
    # constructor's refusal
    _key_count = attrgetter("dim")
    _key_kind = "basis element"

    def __init__(self, space, coeffs: Mapping):
        pairs = tuple(sorted((k, c) for k, c in coeffs.items() if not c.is_zero()))
        _set_space(self, space)
        _set_coeffs(self, self._admitted(space, pairs) if pairs else pairs)

    @classmethod
    def _made(cls, space, coeffs: tuple):
        """The element of (key, coefficient) pairs already sorted by key and
        nonzero, as the constructor would leave them: nothing is checked.
        Q(i) is a field, so the negation or a nonzero multiple of a nonzero
        coefficient stays nonzero."""
        out = _new(cls)
        _set_space(out, space)
        _set_coeffs(out, coeffs)
        return out

    def _admitted(self, space, pairs: tuple) -> tuple:
        """The nonempty sorted pairs of the constructor, a key that names no
        basis element of space refused.  Keys are indices below
        ``_key_count(space)``, so the first and the last decide."""
        _refuse_foreign("coefficient index", (pairs[0][0], pairs[-1][0]), self._key_count(space), self._key_kind)
        return pairs

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self) -> tuple:
        return self.coeffs

    def _key_degree(self, key) -> int:
        return self.space.degrees[key]

    def _degrees(self) -> set:
        """The degrees of the terms: key degree plus the degree of each basis
        element in the coefficient."""
        key_degree = self._key_degree
        return {key_degree(k) + c.space.degrees[j] for k, c in self.coeffs for j, _ in c.coeffs}

    def _degree_terms(self) -> list:
        """(degree, key, coefficient part) of every homogeneous term, by key."""
        key_degree = self._key_degree
        return [(key_degree(k) + d, k, part) for k, c in self.coeffs for d, part in c.homogeneous_parts().items()]

    def degree(self) -> Optional[int]:
        """Degree if homogeneous (the zero element has no degree), else raises."""
        degrees = self._degrees()
        if len(degrees) > 1:
            raise DegreeError(f"{type(self).__name__} is not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop() if degrees else None

    def homogeneous_parts(self) -> Dict[int, "Combination"]:
        """{degree: part}, by degree; a homogeneous element is its own part."""
        parts: Dict[int, list] = {}
        for d, k, c in self._degree_terms():
            parts.setdefault(d, []).append((k, c))
        if len(parts) == 1:
            return {d: self for d in parts}
        return {d: self._made(self.space, tuple(m)) for d, m in sorted(parts.items())}

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Combination"):
        if type(other) is not type(self) or other.space is not self.space and not self._compatible(other.space):
            raise BaseMismatch(f"{type(self).__name__} with {type(other).__name__} of another space")

    def _compatible(self, space) -> bool:
        """Whether elements over space mix with those over self.space: here
        only when it is the same object."""
        return space is self.space

    def __add__(self, other):
        self._check(other)
        if not other.coeffs:
            return self
        if not self.coeffs and other.space is self.space:
            return other
        acc = dict(self.coeffs)
        for k, c in other.coeffs:
            old = acc.get(k)
            acc[k] = c if old is None else old + c
        return self._made(self.space, tuple(sorted(p for p in acc.items() if not p[1].is_zero())))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._made(self.space, tuple((k, -c) for k, c in self.coeffs))

    def scale(self, s: Scalar):
        if s is ONE:
            return self
        if s is MINUS_ONE:
            return -self
        if s.is_zero():
            return self._made(self.space, ())
        return self._made(self.space, tuple((k, c.scale(s)) for k, c in self.coeffs))

    def a_mul(self, a: "AlgebraElement"):
        """Left multiplication of every coefficient by the base element a."""
        products = ((k, a * c) for k, c in self.coeffs)
        return self._made(self.space, tuple(p for p in products if p[1].coeffs))

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and (other.space is self.space or self._compatible(other.space))
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)


_new = object.__new__
_set_space = Combination.space.__set__
_set_coeffs = Combination.coeffs.__set__


class AlgebraElement(Combination):
    """Sparse element sum c_i e_i of a BaseAlgebra, c_i Scalars."""

    __slots__ = ()
    algebra = Combination.space

    # the term-degree hooks: a Scalar coefficient has degree 0

    def _degrees(self) -> set:
        degrees = self.algebra.degrees
        return {degrees[i] for i, _ in self.coeffs}

    def _degree_terms(self) -> list:
        degrees = self.algebra.degrees
        return [(degrees[i], i, c) for i, c in self.coeffs]

    def scale(self, s: Scalar) -> "AlgebraElement":
        """s times self: each Scalar coefficient times s."""
        if s is ONE or s is MINUS_ONE or s.is_zero():
            return Combination.scale(self, s)
        return _element(self.algebra, tuple((i, c * s) for i, c in self.coeffs))

    def a_mul(self, a: "AlgebraElement") -> "AlgebraElement":
        """Left multiplication, mirroring the other kinds."""
        return a * self

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """sum c_i c_j e_i e_j through the product rule (``_add_product``)."""
        self._check(other)
        alg = self.algebra
        out: Sums = {}
        for i, c in self.coeffs:
            _add_product(out, alg, i, other.coeffs, 0, c.n_re, c.n_im, c.den)
        return _summed(alg, out)

    def d(self) -> "AlgebraElement":
        """Apply the differential d_A (extended linearly from the basis)."""
        return _linear(self, self.algebra._differential.get)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        names = self.algebra.names
        return " + ".join(f"({c})*{names[i]}" for i, c in self.coeffs)


_element = AlgebraElement._made


def _summed(algebra: "BaseAlgebra", out: Sums) -> AlgebraElement:
    """The AlgebraElement of a complete coefficient sum (``scalars.Sums``)."""
    return _element(algebra, _reduced_items(out))


def _linear(a: AlgebraElement, value: Callable[[int], Optional[AlgebraElement]]) -> AlgebraElement:
    """sum c_i value(i) for a = sum c_i e_i: a linear map given by its values
    on the basis (None for a zero value), each coefficient of the result
    reduced once."""
    out: Sums = {}
    for i, c in a.coeffs:
        v = value(i)
        if v is not None:
            _add_multiple(out, v.coeffs, c.n_re, c.n_im, c.den)
    return _summed(a.space, out)


def _add_product(
    out: Sums, base: "BaseAlgebra", i: int, pairs: Iterable[Tuple[int, Scalar]], twist: int,
    n_re: int, n_im: int, den: int,
) -> None:
    """out += (n_re + n_im i) / den * e_i x for the element x with the
    (basis index, Scalar) pairs given, each c_j e_j of x signed
    (-1)^{twist |e_j|} (the Koszul sign of moving it past an element of
    degree twist): one unreduced triple per structure constant.  The one
    product rule of the base: every product, derivation row and
    contraction of the kit is summed through it."""
    products, degrees = base._products, base.degrees
    for j, c in pairs:
        c_re, c_im = c.n_re, c.n_im
        if twist & degrees[j] & 1:
            c_re, c_im = -c_re, -c_im
        _add_multiple(out, products[i, j].coeffs, n_re * c_re - n_im * c_im, n_re * c_im + n_im * c_re, den * c.den)


class BaseAlgebra:
    """Graded commutative unital dga with a finite named basis.

    products maps ordered basis pairs (i, j) to sparse coefficient maps; only
    nonzero products need to be supplied, and both orders may be given (the
    validator checks graded commutativity).  Missing pairs multiply to zero,
    except pairs involving the unit which default to the unit law, and pairs
    whose mirror (j, i) is given, which follow graded commutativity.  The
    table of all dim^2 basis products is filled once, here, after one index
    check of the given coefficients.  A given pair
    with the unit that breaks the unit law, and a nonzero differential of
    the unit, are refused: the kernels of the kit assume both.  So is a
    product or differential index that names no basis element, which
    nothing would read.
    """

    def __init__(
        self,
        basis: Sequence[Tuple[str, int]],
        unit: int,
        products: Mapping[Tuple[int, int], Mapping[int, Scalar]],
        differential: Optional[Mapping[int, Mapping[int, Scalar]]] = None,
    ):
        self.names = tuple(name for name, _ in basis)
        self.degrees = tuple(int(deg) for _, deg in basis)
        if len(set(self.names)) != len(self.names):
            raise KitError("duplicate basis names")
        if not (0 <= unit < len(self.names)):
            raise KitError("unit index out of range")
        if self.degrees[unit] != 0:
            raise DegreeError("unit must have degree 0")
        self.unit = unit
        n = len(self.names)
        stored = {key: {k: c for k, c in val.items() if not c.is_zero()} for key, val in products.items()}
        differential = differential or {}
        _refuse_foreign("product index", (i for key in stored for i in key), n, "basis element")
        _refuse_foreign("differential index", differential, n, "basis element")
        if any(not c.is_zero() for c in differential.get(unit, {}).values()):
            raise KitError(f"differential of the unit {self.names[unit]!r} is not zero")
        # one index check of every given coefficient, so the dim^2 products
        # are made without the checks of the element constructor
        _refuse_foreign("coefficient index", (k for val in stored.values() for k in val), n, "basis element")
        self._products: Dict[Tuple[int, int], AlgebraElement] = {}
        for i in range(n):
            for j in range(n):
                coeffs = stored.get((i, j))
                if coeffs is None:
                    if i == unit:
                        pairs = ((j, ONE),)
                    elif j == unit:
                        pairs = ((i, ONE),)
                    elif (j, i) in stored:
                        odd = self.degrees[i] * self.degrees[j] & 1
                        pairs = tuple(sorted((k, -c if odd else c) for k, c in stored[(j, i)].items()))
                    else:
                        pairs = ()
                elif breaks_unit_law(unit, i, j, coeffs):
                    raise KitError(f"product {self.names[i]!r} * {self.names[j]!r} breaks the unit law")
                else:
                    pairs = tuple(sorted(coeffs.items()))
                self._products[(i, j)] = _element(self, pairs)
        self._differential: Dict[int, AlgebraElement] = {}
        for i, val in differential.items():
            self._differential[i] = AlgebraElement(self, dict(val))
        # elements are immutable, so the zero, the unit and the basis
        # elements are made once and shared
        self._zero = _element(self, ())
        self._basis = tuple(_element(self, ((i, ONE),)) for i in range(n))

    # -- structural access ---------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KitError(f"no basis element named {name!r}") from None

    def zero(self) -> AlgebraElement:
        return self._zero

    def one(self) -> AlgebraElement:
        return self._basis[self.unit]

    def basis_element(self, i: int) -> AlgebraElement:
        return self._basis[i]

    def from_names(self, mapping: Mapping[str, Scalar]) -> AlgebraElement:
        return AlgebraElement(self, {self.index_of(n): c for n, c in mapping.items()})

    def product_basis(self, i: int, j: int) -> AlgebraElement:
        return self._products[(i, j)]

    def differential_basis(self, i: int) -> AlgebraElement:
        return self._differential.get(i, self._zero)

    def degree_range(self) -> Tuple[int, int]:
        return min(self.degrees), max(self.degrees)

    def __repr__(self) -> str:
        return f"BaseAlgebra(dim={self.dim}, basis={self.names})"


def breaks_unit_law(unit: int, i: int, j: int, coeffs: Mapping[int, Scalar]) -> bool:
    """Whether coeffs, given as the product of basis elements i and j, breaks
    the unit law: a product with the unit is the other factor."""
    nonzero = {k: c for k, c in coeffs.items() if not c.is_zero()}
    return unit in (i, j) and nonzero != {j if i == unit else i: ONE}


def _degree_problem(label: str, value, want: int) -> Optional[str]:
    """The degree fault of value, which should have degree want, as one
    message about label, or None.  A zero value has no degree and passes.
    Every degree check of the kit goes through here."""
    try:
        got = value.degree()
    except DegreeError:
        return f"{label} is not homogeneous"
    if got is not None and got != want:
        return f"{label} has degree {got}, expected {want}"
    return None


def _leibniz_failures(base: BaseAlgebra, values: Mapping, degree: int, lift: Callable) -> List[Tuple[int, int]]:
    """The basis pairs (i, j) on which the degree-``degree`` map P given by
    its basis values (values[i] = P(e_i), zero where missing) breaks the
    Leibniz rule

        P(e_i e_j) = P(e_i) e_j + (-1)^{degree |e_i|} e_i P(e_j),

    the values living where lift sends the base."""
    failures = []
    zero = lift(base.zero())
    for i in range(base.dim):
        e_i = lift(base.basis_element(i).scale(sign_scalar(degree * base.degrees[i])))
        for j in range(base.dim):
            lhs = zero
            for k, c in base.product_basis(i, j).items():
                lhs = lhs + values.get(k, zero).scale(c)
            if lhs != values.get(i, zero) * lift(base.basis_element(j)) + e_i * values.get(j, zero):
                failures.append((i, j))
    return failures


def validate_base_algebra(algebra: BaseAlgebra) -> list[str]:
    """Check the BaseAlgebra invariants the constructor does not refuse;
    returns a list of violation strings."""
    problems: list[str] = []
    n = algebra.dim
    names = algebra.names
    degs = algebra.degrees

    for i in range(n):
        for j in range(n):
            prod = algebra.product_basis(i, j)
            problem = _degree_problem(f"product {names[i]}*{names[j]}", prod, degs[i] + degs[j])
            if problem:
                problems.append(problem)
            flipped = algebra.product_basis(j, i).scale(sign_scalar(degs[i] * degs[j]))
            if prod != flipped:
                problems.append(f"graded commutativity fails on ({names[i]}, {names[j]})")

    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = algebra.product_basis(i, j) * algebra.basis_element(k)
                right = algebra.basis_element(i) * algebra.product_basis(j, k)
                if left != right:
                    problems.append(
                        f"associativity fails on ({names[i]}, {names[j]}, {names[k]})"
                    )

    differentials = [algebra.differential_basis(i) for i in range(n)]
    for i, di in enumerate(differentials):
        problem = _degree_problem(f"d({names[i]})", di, degs[i] + 1)
        if problem:
            problems.append(problem)
        if not di.d().is_zero():
            problems.append(f"d^2 != 0 on {names[i]}")

    for i, j in _leibniz_failures(algebra, dict(enumerate(differentials)), 1, lambda a: a):
        problems.append(f"Leibniz fails on ({names[i]}, {names[j]})")

    return problems
