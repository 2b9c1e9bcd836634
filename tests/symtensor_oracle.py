"""The Maurer-Cartan residual in its three-term form, kept as a test oracle,
and the sum of two derivations it is built from.

``symtensor.mc_residual`` evaluates C(Cx) - D0(D0x) for C = Phi D0 Phi^{-1};
by bilinearity that equals D0(omega x) + omega(D0 x) + omega(omega x) for the
deficiency omega = C - D0, which ``oracle_mc_residual`` evaluates."""

from __future__ import annotations

from algebroidkit.scalars import MINUS_ONE, ONE
from algebroidkit.symtensor import DerivationD


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
