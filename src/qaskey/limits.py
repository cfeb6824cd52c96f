"""Harnesses for the two limit transitions, both in exact arithmetic.

* q -> 1 (continuous q-Jacobi to Jacobi) runs at q = s^4 with the
  rational s = 1 - 2^-(k+2), so q ~ 1 - 2^-k and every quarter power
  of q the family needs is a power of s.
* eps -> 0 collapses Askey-Wilson onto big q-Jacobi; every quantity is
  rational there as well.

Both deviations are literal rational numbers, converted to floats only
for the CSV convergence tables:
    step, parameter_value, max_deviation, ratio
with ratio = previous deviation / current deviation (blank on the
first row); steady ratios >= 1.5 certify the decay.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple

from .displays import DISPLAYS
from .families import (FamilySpec, aw_polynomials, aw_spec, bigq_polynomials, bigq_spec,
                       build_family, cqjacobi_polynomials, cqjacobi_spec, jacobi_spec,
                       validate_spec)
from .laurent import x_to_sym
from .operators import family_L, jacobi_L
from .qcalc import q_pochhammer_multi


class LimitRow(NamedTuple):
    step: int
    parameter_value: float
    max_deviation: float
    ratio: float | None      # previous / current

    def csv(self) -> str:
        r = "" if self.ratio is None else repr(self.ratio)
        return f"{self.step},{self.parameter_value!r},{self.max_deviation!r},{r}"


CSV_HEADER = "step,parameter_value,max_deviation,ratio"


def _attach_ratios(rows):
    prev = None
    out = []
    for step, pv, dev in rows:
        ratio = None if prev in (None, 0) or dev == 0 else float(prev / dev)
        out.append(LimitRow(step, float(pv), float(dev), ratio))
        prev = dev
    return out


# ----------------------------------------------------------------------
# q -> 1: continuous q-Jacobi structure relation onto the Jacobi one
# ----------------------------------------------------------------------

def limit_cqjacobi_to_jacobi(alpha: int, beta: int, n: int, k_range=range(3, 13)):
    """Coefficient deviation of (2/(1-q)) L_q P_n[.; q] from 4 L P_n
    (Jacobi) at q = s^4 with s = 1 - 2^-(k+2), so q ~ 1 - 2^-k, relative
    to the target coefficient scale.  Both sides are exact, so the
    deviation is the limit error alone."""
    jspec = jacobi_spec(alpha, beta)
    jd = build_family(jspec, max(n + 1, 2))
    target = x_to_sym(jacobi_L(jspec)(jd.polys[n]).scale(4))
    scale = max(abs(target.coeff(j)) for j in range(n + 2)) or 1
    rows = []
    for k in k_range:
        spec = cqjacobi_spec(alpha, beta, 1 - Fraction(1, 2) ** (k + 2))
        got = family_L(spec)(cqjacobi_polynomials(n, spec)[n]).scale(2 / (1 - spec.q))
        dev = max(abs(got.coeff(j) - target.coeff(j)) for j in range(n + 2))
        rows.append((k, spec.q, dev / scale))
    return _attach_ratios(rows)


# ----------------------------------------------------------------------
# eps -> 0: Askey-Wilson onto big q-Jacobi, exact rational path
# ----------------------------------------------------------------------

def _aw_eps_spec(a, b, c, q, eps) -> FamilySpec:
    return aw_spec(eps, a * q / eps, -c * q / eps, -eps * b / c, q=q)


def _renorm(a, b, c, q, eps, n) -> Fraction:
    """m_n = eps^n / (aq, -cq, -eps^2 b/c; q)_n."""
    return eps ** n / q_pochhammer_multi((a * q, -c * q, -eps * eps * b / c), q, n)


def rescaled_aw_laurent(a, b, c, q, eps, n):
    """m_n p_n[x/eps] as a Laurent polynomial in x; converges
    coefficient-wise to the big q-Jacobi polynomial (negative powers of x
    die out)."""
    spec = _aw_eps_spec(a, b, c, q, eps)
    validate_spec(spec, n)
    m = _renorm(a, b, c, q, eps, n)
    return aw_polynomials(n, spec)[n].to_laurent().dilate(1 / eps).scale(m)


def limit_aw_to_bigq(a, b, c, q, n, eps_ks=range(4, 12)):
    """Exact coefficient deviation between the rescaled Askey-Wilson data
    and big q-Jacobi data at eps = 2^-k, plus the structure-relation
    coefficients rescaled by sigma(eps) = -eps/(a c q^2).  Raises
    InadmissibleParameters where the big q-Jacobi point is not admissible
    up to degree n."""
    a, b, c, q = Fraction(a), Fraction(b), Fraction(c), Fraction(q)
    spec = bigq_spec(a, b, c, q)
    validate_spec(spec, n)
    target = bigq_polynomials(n, spec)[n]
    if n >= 1:
        tplus, tminus = DISPLAYS["eq40"].closed(spec, n)
    rows = []
    for k in eps_ks:
        eps = Fraction(1, 2 ** k)
        r = rescaled_aw_laurent(a, b, c, q, eps, n)
        dev = max(abs(r.coeff(m) - target.coeff(m)) for m in range(-n, n + 1))
        if n >= 1:   # the p_{n-1} side needs a neighbour below
            sp, sm = _rescaled_structure_coeffs(a, b, c, q, eps, n)
            dev = max(dev, abs(sp - tplus), abs(sm - tminus))
        rows.append((k, eps, dev))
    return _attach_ratios(rows)


def _rescaled_structure_coeffs(a, b, c, q, eps, n):
    """sigma(eps) * the explicit AW structure coefficients carried through
    the renormalization m_n, at the eps-substituted parameter point."""
    eplus, eminus = DISPLAYS["eq18"].closed(_aw_eps_spec(a, b, c, q, eps), n)
    below, m, above = (_renorm(a, b, c, q, eps, k) for k in (n - 1, n, n + 1))
    sigma = -eps / (a * c * q * q)
    return sigma * eplus * m / above, sigma * eminus * m / below


def write_csv(rows, path) -> None:
    """Write the table with its header to ``path``; ``-`` means stdout."""
    text = "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
