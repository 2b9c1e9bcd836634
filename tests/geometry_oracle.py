"""Both sides of the central duality as they stood before each became one
pass, kept as test oracles.

* ``oracle_build_frakD(g)`` rebuilds the assembled differential term by term,
  by explicit substitution of the single tangent letter, with the per-p
  bounds of the Rtan_p o Shape^q series: p <= cap - q from dhat on the base,
  p <= cap - 1 - q from Gamma on the normal letters.
* ``oracle_tangent_series(g, start)`` is ``geometry._tangent_series`` as it
  stood before it walked the terms of the Shape powers once through Rtan:
  the powers summed as ``SymElement`` values, then one Rtan ``apply``.
* ``oracle_build_kapranov(g)`` builds Kapranov's d0 + sum_k Rperp_k as the
  diagonal-regime construction stood before it read the model: on a
  symmetric algebra of its own over the normal module, each curvature value
  copied over word by word.
* ``oracle_structure_from_geometry(g)`` is the alpha/ell recursion with
  every generator map extended by ``multilinear_extend`` and summed as
  ``ModuleElement`` values position by position.
* ``oracle_duality_residual(g)`` compares the two sides of the duality on
  the normal generators in a loop of its own, which
  ``geometry.duality_residual`` shares with ``symtensor.mc_residual`` as
  ``symtensor.generator_differences``.
* The reads that became ``algebroid._letter_transpose`` and
  ``algebroid.d0_derivation``: ``from_dual_values`` (the inverse of
  ``modules.pair_dual``), the Shape and Gamma rows of
  ``oracle_contraction_table``, the dhat rows of ``oracle_dhat_rows`` and the
  ambient d0 of ``oracle_ambient_d0``, its tangent letters dualized one by
  one.
* ``project_bidegree(g, el, p)`` and ``p1(g, el)``, the projections of an
  ambient element onto its words with p tangent letters and with one, which
  the tests read and no check does.
* ``oracle_geometric_degree_problems(g)`` is ``geometry.geometric_degree_problems``
  as it stood before it decided each value in one walk of its terms: the
  weights, degree and word bidegrees of every stored value read by the
  element methods, whether or not the value fits its row.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from algebroidkit.algebra import _degree_problem
from algebroidkit.algebroid import AlgebroidStructure, ce_differential
from algebroidkit.errors import BaseMismatch
from algebroidkit.geometry import TENSOR_FAMILIES, build_frakD, structure_from_geometry
from algebroidkit.linfty import BracketTable
from algebroidkit.modules import FreeModule, ModuleElement, _koszul_twist, multilinear_extend
from algebroidkit.scalars import MINUS_ONE, ONE, Scalar, sign_scalar
from algebroidkit.signs import _nonvanishing_keys
from algebroidkit.symtensor import DerivationD, SymAlgebra, SymElement, _normalized, _word_constant
from symtensor_oracle import oracle_d0_derivation, oracle_dual_differential_letter

Word = Tuple[int, ...]


# -- the assembled differential -------------------------------------------------------


def project_bidegree(g, el: SymElement, p: int) -> SymElement:
    """The words of an ambient element with exactly p tangent letters."""
    if not g.amb.compatible(el.algebra):
        raise BaseMismatch("element is not over the ambient algebra")
    return _normalized(g.amb, {w: c for w, c in el.items() if g.tangent_count(w) == p})


def p1(g, el: SymElement) -> SymElement:
    """Projection onto words with exactly one tangent letter."""
    return project_bidegree(g, el, 1)


def _substitute_tangent(g, el: SymElement, table: Mapping[int, SymElement], op_degree: int) -> SymElement:
    """The degree-op_degree substitution of the one tangent letter (always
    in front) of every word of el by its value in table: c t rest goes to
    (-1)^{op_degree |c|} c table[t] rest, one homogeneous part of c at a time."""
    out = g.amb.zero()
    for w, c in el.items():
        assert w and w[0] < g.a and g.tangent_count(w) == 1, w
        val = table.get(w[0])
        if val is None or val.is_zero():
            continue
        for d, hc in c.homogeneous_parts().items():
            term = g.amb.word((), hc.scale(sign_scalar(op_degree * d)))
            out = out + term * g.to_amb(val) * g.amb.word(w[1:])
    return out


def _oracle_series(g, start: SymElement, top: int) -> SymElement:
    """rho-dual of sum_{q >= 0} sum_{p = 1..top - q} Rtan_p(Shape^q(start))."""
    val = g.nor.zero()
    current = start
    for q in range(g.cap):
        if current.is_zero():
            break
        for p in range(1, top - q + 1):
            table = g.beta if p == 1 else g.curv_tan.get(p, {})
            val = val + g.rho_dual(_substitute_tangent(g, current, table, 1))
        current = _substitute_tangent(g, current, g.shape, 0)
    return val


def oracle_tangent_series(g, start: SymElement) -> SymElement:
    """rho-dual of Rtan(sum_{q >= 0} Shape^q(start)): the Shape powers summed
    first, at most cap - 1 of them, then one Rtan apply."""
    if start.is_zero():
        return g.nor.zero()
    total = current = start
    for _ in range(g.cap - 1):
        current = g.shape_tilde(current)
        if current.is_zero():
            break
        total = total + current
    return g.rho_dual(g._rtan.apply(total))


def oracle_build_frakD(g) -> Tuple[Dict[int, SymElement], Dict[int, SymElement]]:
    """(on_algebra, on_letters) of the assembled differential, zero values
    left out:

        D(e_b)  = d_A e_b + sum_q sum_{p <= cap - q} rho Rtan_p Shape^q dhat(e_b)
        D(nu_j) = d0(nu_j) + sum_{k <= cap} Rperp_k(nu_j)
                  + sum_q sum_{p <= cap - 1 - q} rho Rtan_p Shape^q Gamma(nu_j)
    """
    base = g.base
    on_algebra = {}
    for b in range(base.dim):
        val = g.nor.scalar(base.differential_basis(b)) + _oracle_series(g, g.dhat[b], g.cap)
        if not val.is_zero():
            on_algebra[b] = val
    on_letters = {}
    d0 = g.normal_d0()
    for j in range(g.b):
        val = d0.on_letters.get(j, g.nor.zero())
        for k, table in g.curv_perp.items():
            if k <= g.cap and j in table:
                val = val + table[j]
        val = val + _oracle_series(g, g.gamma[j], g.cap - 1)
        if not val.is_zero():
            on_letters[j] = val
    return on_algebra, on_letters


def oracle_build_kapranov(g) -> Tuple[Dict[int, Dict[Word, object]], Dict[int, Dict[Word, object]]]:
    """(on_algebra, on_letters) of d0 + sum_{2 <= k <= cap} Rperp_k as word
    tables {index: {word: coefficient}}, zero values left out."""
    alg = SymAlgebra.over_module(g.normal, cap=g.cap)
    D0 = oracle_d0_derivation(alg, g.normal)
    on_letters = dict(D0.on_letters)
    for k, table in g.curv_perp.items():
        assert k >= 2, k
        if k > g.cap:
            continue
        for i, el in table.items():
            on_letters[i] = on_letters.get(i, alg.zero()) + SymElement(alg, dict(el.items()))
    return (
        {b: v.data for b, v in D0.on_algebra.items()},
        {i: v.data for i, v in on_letters.items() if not v.is_zero()},
    )


# -- the recursive structure -------------------------------------------------------------


def from_dual_values(module: FreeModule, values: Mapping[int, object]) -> ModuleElement:
    """The inverse of ``pair_dual``: the element T with g_i^vee(T) = values[i].

    The pairing multiplies each homogeneous part of degree d by
    (-1)^{d |g_i^vee|}, and so does its inverse.
    """
    return ModuleElement(
        module,
        {i: _koszul_twist(a, -module.degrees[i]) for i, a in values.items() if not a.is_zero()},
    )


def _transpose(g, table: Mapping[int, SymElement], target: FreeModule, twist: int, key: Word) -> ModuleElement:
    kappa = Scalar.rational(_word_constant(g.nor, key))
    values = {}
    for i, el in table.items():
        c = el.data.get(key)
        if c is not None:
            values[i] = c.scale(kappa * sign_scalar(twist - target.degrees[i]))
    return from_dual_values(target, values)


def oracle_contraction_table(
    g, table: Mapping[int, SymElement], target: FreeModule, sign: Scalar
) -> Dict[int, Dict[Word, ModuleElement]]:
    """{k: {(j,): value}}: the (1,1)-contraction on (t_j, nu_k) of an ambient
    tensor table, times sign, one ``from_dual_values`` per tangent generator."""
    out: Dict[int, Dict[Word, ModuleElement]] = {}
    for k in range(g.b):
        row = out[k] = {}
        for j in range(g.a):
            w = (j, g.a + k)
            scale = Scalar.rational(_word_constant(g.amb, w)) * sign
            values = {i: el.data[w].scale(scale) for i, el in table.items() if w in el.data}
            if values:
                row[(j,)] = from_dual_values(target, values)
    return out


def oracle_dhat_rows(g) -> Dict[int, Dict[Word, object]]:
    """{b: {(j,): value}}: dhat e_b on the tangent generator t_j, signed
    (-1)^{|e_b| |t_j|}."""
    return {
        b: {
            (j,): el.data[(j,)].scale(sign_scalar(g.base.degrees[b] * g.tangent.degrees[j]))
            for j in range(g.a)
            if (j,) in el.data
        }
        for b, el in g.dhat.items()
    }


def oracle_ambient_d0(g) -> DerivationD:
    """d_A on coefficients; on the tangent letter i the dual of d_L of the
    tangent module plus beta_i, on the normal letters the normal d0."""
    on_letters = {}
    for i in range(g.a):  # the tangent letters are the first letters of amb
        val = oracle_dual_differential_letter(g.amb, g.tangent, i)
        val = val + g.to_amb(g.beta.get(i, g.nor.zero()))
        if not val.is_zero():
            on_letters[i] = val
    D0n = oracle_d0_derivation(g.nor, g.normal)
    on_letters.update({g.a + j: g.to_amb(v) for j, v in D0n.on_letters.items()})
    on_algebra = {i: g.to_amb(v) for i, v in D0n.on_algebra.items()}
    return DerivationD(g.amb, on_algebra, on_letters, degree=1, check=False)


def oracle_structure_from_geometry(g) -> AlgebroidStructure:
    """alpha_1 = beta-transpose; for n >= 2
        alpha_n = Rtan_n + sum_{Sh(n-1,1)} alpha(sigma) Shape(alpha_{n-1}(first), last)
        ell_n   = Rperp_n + sum_{Sh(n-1,1)} alpha(sigma) Gamma(alpha_{n-1}(first), last)
    and the anchors the dhat pairings of alpha_n, every pairing a
    ``multilinear_extend`` call of operator degree 0."""
    cap = g.cap
    S = AlgebroidStructure(g.base, g.normal, bracket_cap=cap)
    degrees = g.normal.degrees
    tangent_degrees = g.tangent.degrees
    shape = oracle_contraction_table(g, g.shape, g.tangent, ONE)
    gamma = oracle_contraction_table(g, g.gamma, g.normal, MINUS_ONE)

    alpha_tables: Dict[int, BracketTable] = {}
    for n in range(1, cap + 1):
        alpha = alpha_tables[n] = BracketTable(degrees)
        previous = alpha_tables.get(n - 1, {})
        for key in _nonvanishing_keys(degrees, n):
            alpha_val = _transpose(g, g.rtan_tables.get(n, {}), g.tangent, 0, key)
            ell = _transpose(g, g.curv_perp.get(n, {}), g.normal, 1, key)
            for p, last in enumerate(key):
                inner = previous.get(key[:p] + key[p + 1:])
                if inner is None:
                    continue
                sign = sign_scalar(degrees[last] * sum(degrees[q] for q in key[p + 1:]))
                alpha_val = alpha_val + multilinear_extend(
                    shape[last].get, 0, [inner], tangent_degrees, g.tangent.zero()
                ).scale(sign)
                ell = ell + multilinear_extend(
                    gamma[last].get, 0, [inner], tangent_degrees, g.normal.zero()
                ).scale(sign)
            alpha.set(key, alpha_val)
            if n >= 2 and not ell.is_zero():
                S.set_bracket(n, key, ell)

    dhat = oracle_dhat_rows(g)
    for m, alpha in alpha_tables.items():
        for key, alpha_val in alpha.items():
            for b, table in dhat.items():
                paired = multilinear_extend(table.get, 0, [alpha_val], tangent_degrees, g.base.zero())
                if not paired.is_zero():
                    S.set_anchor(m + 1, key, b, paired)
    return S


# -- the duality ------------------------------------------------------------------------


def oracle_duality_residual(g) -> Dict[str, SymElement]:
    """{normal generator label: D_ce(x) - D_geo(x)} where the CE derivation of
    the emitted structure and the assembled differential differ."""
    D_ce = ce_differential(structure_from_geometry(g), weight_cap=g.cap)
    D_geo = build_frakD(g)
    out: Dict[str, SymElement] = {}
    zero = g.nor.zero()
    for slot, i, label, _ in g.nor.generators():
        lhs = (D_ce.on_algebra, D_ce.on_letters)[slot].get(i, zero)
        rhs = (D_geo.on_algebra, D_geo.on_letters)[slot].get(i, zero)
        if lhs != rhs:
            out[label] = lhs - rhs
    return out


# -- the row check of the model constructor -----------------------------------------


def oracle_geometric_degree_problems(g) -> List[str]:
    """Degree and bidegree bookkeeping of every stored tensor against its row
    of ``TENSOR_FAMILIES``, value by value through the element methods."""
    problems: List[str] = []
    for fam in TENSOR_FAMILIES:
        names, degrees = g.index_set(fam)
        m = fam.bidegree[0]
        for k, table in g.weight_tables(fam).items():
            if k < fam.weight:
                problems.append(f"{fam.name} arity {k} < {fam.weight}")
                continue
            for i, el in table.items():
                if el.is_zero():
                    continue
                index = names[i] if fam.index == "base" else i
                name = f"{fam.name}[{k}][{index}]" if fam.weighted else f"{fam.name}[{index}]"
                if fam.values == "normal" and el.weights() != [k]:
                    problems.append(f"{name} has weights {el.weights()}")
                problem = _degree_problem(name, el, degrees[i] + fam.shift)
                if problem:
                    problems.append(problem)
                if fam.values == "ambient":
                    for w, _ in el.items():
                        if g.bidegree(w) != (m, k - m):
                            problems.append(f"{name} has a word of bidegree {g.bidegree(w)}")
    return problems
