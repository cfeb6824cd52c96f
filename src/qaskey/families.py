"""The five polynomial families and their exact coefficient data.

A :class:`FamilySpec` names a family and fixes rational parameter
values.  Fractional powers of q are kept rational by carrying a base
scale s with q = s**base_exp, so expressions like q^(alpha/2 + 1/4)
become integer powers of s.  A :class:`FamilyData` holds, for every
degree up to a cap, the polynomial p_n together with

  k_n     leading coefficient in x
  A_n,B_n,C_n   three-term recurrence  x p_n = A_n p_{n+1} + B_n p_n + C_n p_{n-1}
  h_n     squared norm, normalized h_0 = 1, via C_n = A_{n-1} h_n / h_{n-1}
  lam_n   eigenvalue of the family's second-order operator, lam_0 = 0
  gamma_n slope of the skew operator, gamma_n = lam_{n+1} - lam_n

Every family is built from its hypergeometric sum, for every degree
0..N in one pass per point: the Askey-Wilson 4phi3, the big q-Jacobi
3phi2 and the Jacobi 2F1 form their n-free term polynomials
(az, a/z; q)_k, (x; q)_k or ((1-x)/2)^k and the n-free part of each term
ratio once (the q-sums read every power of q from one table), and sum
each p_n as one integer combination of those shared rows
(:func:`aw_polynomials`, :func:`bigq_polynomials`,
:func:`jacobi_polynomials`).  Prefactors, norms and recurrence
coefficients are running products over n.

Continuous q-Jacobi and continuous q-ultraspherical are the Askey-Wilson
family at a restricted point (:func:`cqjacobi_aw_spec`,
:func:`cqultra_aw_spec`) in another normalization p_n = sigma_n P_n
(:func:`cqjacobi_scale`, :func:`cqultra_scale`): one builder,
:func:`_build_aw`, makes all three symmetric families, and their
operators are the Askey-Wilson L and D at the restricted point.

Each family is one row of :data:`FAMILIES`: parameter names, constructor,
sampler draw, admissibility check and builder.

Each FamilyData also owns the point's operators L and D, its derived
second-order q-difference equation, the expansions of x^k in its basis
and the Gram matrix <x^i, x^j> of its monomials, each built on first use
(the last two only as far as a check reads) and dropped with the
FamilyData, so every check at one point shares them.

The expansions grow through the three-term recurrence read off the top
coefficients of x p_n, the whole relation checked exactly, never
guessed; big q-Jacobi, whose literature data here stops at the
hypergeometric sum, takes its A_n, B_n and C_n from it too.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from typing import Callable, Mapping, NamedTuple, Sequence, Union

from .laurent import SPACES, SymLaurentPoly, XPoly, combine, sym_to_x

Rat = Union[int, Fraction]

AW = "askey-wilson"
JACOBI = "jacobi"
CQJ49 = "continuous-q-jacobi-e49"
CQU = "continuous-q-ultraspherical"
BIGQ = "big-q-jacobi"

#: the command-line name of continuous q-Jacobi, whose points carry the
#: family name CQJ49 after the embedding they are built through
CQJ = "continuous-q-jacobi"

#: families exposed on the command line
CLI_FAMILIES = (AW, JACOBI, CQJ, CQU, BIGQ)


class InadmissibleParameters(ValueError):
    """Parameter values that hit an excluded denominator or power of q."""


class ExpansionError(ArithmeticError):
    """A basis expansion left a residual; the family data is corrupt."""


class FamilySpec(NamedTuple):
    """One parameter point.  The constructors below give ``params`` in
    sorted key order, and every report of the point holds this one
    mapping as its params."""

    family: str
    params: Mapping[str, Fraction]
    base: Fraction | None = None   # s with q = s**base_exp
    base_exp: int = 1

    @property
    def q(self) -> Fraction:
        return self.params["q"]

    def qpow(self, e: Rat) -> Fraction:
        """q**e as an exact rational, via the base scale."""
        if self.base is None:
            raise InadmissibleParameters(f"family {self.family} has no base scale")
        ex = Fraction(e) * self.base_exp
        if ex.denominator != 1:
            raise InadmissibleParameters(
                f"q^({e}) is not an integer power of the base scale s={self.base}")
        return self.base ** int(ex)


# ----------------------------------------------------------------------
# parameter-point constructors
# ----------------------------------------------------------------------

def aw_spec(a: Rat, b: Rat, c: Rat, d: Rat, q: Rat | None = None,
            s: Rat | None = None, m: int = 1) -> FamilySpec:
    """Askey-Wilson parameters; pass either q directly or a base s with q=s^m."""
    if (q is None) == (s is None):
        raise ValueError("give exactly one of q or a base scale s")
    if q is None:
        base = Fraction(s)
        qv = base ** m
    else:
        base, m, qv = Fraction(q), 1, Fraction(q)
    return FamilySpec(AW, {"a": Fraction(a), "b": Fraction(b), "c": Fraction(c),
                           "d": Fraction(d), "q": qv}, base=base, base_exp=m)


def jacobi_spec(alpha: Rat, beta: Rat) -> FamilySpec:
    al, be = Fraction(alpha), Fraction(beta)
    if al <= -1 or be <= -1:
        raise InadmissibleParameters("alpha and beta must exceed -1")
    return FamilySpec(JACOBI, {"alpha": al, "beta": be}, base=None, base_exp=0)


def cqjacobi_spec(alpha: Rat, beta: Rat, s: Rat) -> FamilySpec:
    al, be, sv = Fraction(alpha), Fraction(beta), Fraction(s)
    if (2 * al).denominator != 1 or (2 * be).denominator != 1:
        raise InadmissibleParameters(
            "alpha, beta must be half-integers so q^(alpha/2+1/4) is a power of s")
    if not (0 < sv < 1):
        raise InadmissibleParameters("base scale s must lie in (0,1)")
    if al < 0 or be < 0:
        raise InadmissibleParameters(
            "alpha, beta >= 0 keeps the induced parameters inside the unit interval")
    return FamilySpec(CQJ49, {"alpha": al, "beta": be, "q": sv ** 4},
                      base=sv, base_exp=4)


def cqultra_spec(u: Rat, s: Rat) -> FamilySpec:
    """Continuous q-ultraspherical with t = u^2 (so t^(1/2) stays rational)
    at q = s^4, so that q^(1/4), which the four-parameter restriction and
    the explicit second-order operator need, is the power s of the base."""
    uv, sv = Fraction(u), Fraction(s)
    if not (0 < abs(uv) < 1):
        raise InadmissibleParameters("u must satisfy 0 < |u| < 1")
    if not (0 < sv < 1):
        raise InadmissibleParameters("base scale s must lie in (0,1)")
    return FamilySpec(CQU, {"q": sv ** 4, "t": uv * uv, "u": uv},
                      base=sv, base_exp=4)


def bigq_spec(a: Rat, b: Rat, c: Rat, q: Rat) -> FamilySpec:
    av, bv, cv, qv = Fraction(a), Fraction(b), Fraction(c), Fraction(q)
    if av == 0 or cv == 0:
        raise InadmissibleParameters("a and c must be nonzero")
    return FamilySpec(BIGQ, {"a": av, "b": bv, "c": cv, "q": qv},
                      base=qv, base_exp=1)


def cqjacobi_aw_spec(spec: FamilySpec, embedding: int = 49) -> FamilySpec:
    """The Askey-Wilson parameter point a continuous q-Jacobi family restricts."""
    s = spec.base
    al, be = spec.params["alpha"], spec.params["beta"]
    ea, eb = int(2 * al), int(2 * be)
    if embedding == 49:
        # base q^(1/2) = s^2 and quadruple (q^(a/2+1/4), -q^(b/2+1/4), q^(1/4), -q^(1/4))
        return aw_spec(s ** (ea + 1), -s ** (eb + 1), s, -s, s=s, m=2)
    # base q = s^4 and quadruple (q^(a/2+1/4), q^(a/2+3/4), -q^(b/2+1/4), -q^(b/2+3/4))
    return aw_spec(s ** (ea + 1), s ** (ea + 3), -s ** (eb + 1), -s ** (eb + 3),
                   s=s, m=4)


def cqultra_aw_spec(spec: FamilySpec) -> FamilySpec:
    """AW quadruple (t^(1/2), -t^(1/2), q^(1/4), -q^(1/4)) at base q^(1/2)."""
    s, u = spec.base, spec.params["u"]
    return aw_spec(u, -u, s, -s, s=s, m=2)


# ----------------------------------------------------------------------
# admissibility
# ----------------------------------------------------------------------

def validate_spec(spec: FamilySpec, n_max: int = 16) -> None:
    """Reject parameter points that break any denominator up to degree n_max."""
    q = spec.params.get("q")
    if q is not None and not (0 < q < 1):
        raise InadmissibleParameters("q must lie in (0,1)")
    FAMILIES[spec.family].check(spec, n_max)


def _check_cqjacobi(spec: FamilySpec, n_max: int) -> None:
    _validate_aw(cqjacobi_aw_spec(spec, 49).params, n_max)
    _validate_aw(cqjacobi_aw_spec(spec, 9).params, n_max)


def _check_bigq(spec: FamilySpec, n_max: int) -> None:
    """aq^k and -cq^k for k <= n_max + 1 (the 3phi2's lower parameters),
    and ab q^k for k <= 2 n_max + 2 (its leading coefficients and eq40's
    1 - ab q^(2n+1)), must differ from 1."""
    a, b, c, q = (spec.params[k] for k in "abcq")
    for n in range(1, 2 * n_max + 3):
        if a * b * q ** n == 1 or (n <= n_max + 1 and (a * q ** n == 1 or c * q ** n == -1)):
            raise InadmissibleParameters(f"degenerate denominator at n={n}")


def _validate_aw(params: Mapping[str, Fraction], n_max: int) -> None:
    a, b, c, d, q = (params[k] for k in "abcdq")
    if 0 in (a, b, c, d):
        raise InadmissibleParameters("zero Askey-Wilson parameter")
    # q^-k by k, distinct for 0 < q < 1: p q^k = 1 <=> p = q^-k
    top = 2 * n_max
    inv = {q ** -k: k for k in range(top + 3)}
    prods = [a * a, b * b, c * c, d * d,
             a * b, a * c, a * d, b * c, b * d, c * d]
    for p in prods:
        k = inv.get(p)
        if k is not None and k <= top:
            raise InadmissibleParameters(f"product {p} is an inverse power of q")
    abcd = a * b * c * d               # abcd q^m = 1 for m = 0 .. 2 n_max + 2
    if abcd in inv:
        raise InadmissibleParameters("abcd hits an inverse power of q")


# ----------------------------------------------------------------------
# hypergeometric constructions
# ----------------------------------------------------------------------

# Every degree 0..hi of a family is built in one pass per point.  A
# terminating series p_n = pref_n sum_{k<=n} r_k(n) t_k has a term ratio
# that splits as r_k(n) = N_k(n) D_k, with D_k free of n.  The term
# polynomials t_k and the D_k are formed once per point, and every p_n is
# one laurent.combine over the integer numerators of the t_k.

def _q_table(q: Fraction, lo: int, hi: int) -> dict:
    """q**e for lo <= e <= hi."""
    return {e: q ** e for e in range(lo, hi + 1)}


def _shared_rows(terms, ds) -> tuple:
    """The numerators of the term polynomials t_k and each D_k divided by
    its t_k's denominator."""
    return [t.nums for t in terms], [dv / t.den for t, dv in zip(terms, ds)]


def _terminating_sum(cls, pref: Fraction, steps, dk, rows):
    """The ``cls`` polynomial pref * sum_{k=0..n} N_k dk[k] rows[k] with
    N_k = prod_{j<k} steps[j] and n = len(steps), as one combine."""
    r = pref
    coeffs = [r * dk[0]]
    for k, f in enumerate(steps, 1):
        r *= f
        coeffs.append(r * dk[k])
    return combine(cls, coeffs, rows)


def _aw_tables(a, b, c, d, q, hi: int) -> tuple:
    """The per-point tables the Askey-Wilson build reads, to degree hi:
    qp[e] = q^e (-hi-2 <= e <= 2hi+2), w[e] = 1 - abcd q^e (-2 <= e <= 2hi - 2)
    and g[j] = (1 - ab q^j)(1 - ac q^j)(1 - ad q^j) (j < hi)."""
    abcd = a * b * c * d
    qp = _q_table(q, -hi - 2, 2 * hi + 2)
    w = {e: 1 - abcd * qp[e] for e in range(-2, 2 * hi - 1)}
    ab, ac, ad = a * b, a * c, a * d
    g = [(1 - ab * qp[j]) * (1 - ac * qp[j]) * (1 - ad * qp[j]) for j in range(hi)]
    return qp, w, g


def _aw_phi43s(hi: int, a: Fraction, qp, w, g, scale=None) -> list:
    """p_n = (ab,ac,ad;q)_n a^-n 4phi3(q^-n, q^(n-1)abcd, az, a/z; ab,ac,ad; q,q)
    times scale[n] (1 without scale) for n = 0..hi, tables from _aw_tables.

    With t_k = (az, a/z; q)_k the k-th term is N_k(n) D_k t_k, where
    D_k = prod_{j<k} q / ((1-ab q^j)(1-ac q^j)(1-ad q^j)(1-q^(j+1))) and
    N_k(n) = prod_{j<k} (1-q^(j-n))(1-abcd q^(n-1+j)).
    """
    q = qp[1]
    term = SymLaurentPoly([Fraction(1)])
    terms, ds, dv = [term], [Fraction(1)], Fraction(1)
    for k in range(1, hi + 1):
        j = k - 1
        dv = dv * q / (g[j] * (1 - qp[k]))
        aj = a * qp[j]
        term = term * SymLaurentPoly([1 + aj * aj, -aj])
        terms.append(term)
        ds.append(dv)
    rows, dk = _shared_rows(terms, ds)
    u = {e: 1 - qp[e] for e in range(-hi, 0)}
    out, pref = [], Fraction(1)
    for n in range(hi + 1):
        if n:
            pref = pref * g[n - 1] / a
        steps = [u[j - n] * w[n - 1 + j] for j in range(n)]
        lead = pref * scale[n] if scale else pref
        out.append(_terminating_sum(SymLaurentPoly, lead, steps, dk, rows))
    return out


def aw_polynomials(hi: int, spec: FamilySpec, scale=None) -> list:
    """The Askey-Wilson polynomials p_0 .. p_hi at one point, p_n times
    scale[n] when a scale is given."""
    a, b, c, d, q = (spec.params[k] for k in "abcdq")
    return _aw_phi43s(hi, a, *_aw_tables(a, b, c, d, q, hi), scale)


def bigq_polynomials(hi: int, spec: FamilySpec) -> list:
    """3phi2(q^-n, abq^(n+1), x; aq, -cq; q, q), degree n in x, for n = 0..hi.

    With t_k = (x; q)_k the k-th term is N_k(n) D_k t_k, where
    D_k = prod_{j<k} q / ((1-aq^(j+1))(1+cq^(j+1))(1-q^(j+1))) and
    N_k(n) = prod_{j<k} (1-q^(j-n))(1-abq^(n+1+j)).
    """
    a, b, c, q = (spec.params[k] for k in "abcq")
    qp = _q_table(q, -hi, 2 * hi)
    term = XPoly([Fraction(1)])
    terms, ds, dv = [term], [Fraction(1)], Fraction(1)
    for k in range(1, hi + 1):
        dv = dv * q / ((1 - a * qp[k]) * (1 + c * qp[k]) * (1 - qp[k]))
        term = term * XPoly([1, -qp[k - 1]])
        terms.append(term)
        ds.append(dv)
    rows, dk = _shared_rows(terms, ds)
    u = {e: 1 - qp[e] for e in range(-hi, 0)}
    ab = a * b
    w = {e: 1 - ab * qp[e] for e in range(1, 2 * hi + 1)}
    out = []
    for n in range(hi + 1):
        steps = [u[j - n] * w[n + 1 + j] for j in range(n)]
        out.append(_terminating_sum(XPoly, Fraction(1), steps, dk, rows))
    return out


def jacobi_polynomials(hi: int, spec: FamilySpec) -> list:
    """P_n = (alpha+1)_n / n! 2F1(-n, n+alpha+beta+1; alpha+1; (1-x)/2)
    (DLMF 18.5.7), degree n in x, for n = 0..hi.

    With t_k = ((1-x)/2)^k the k-th term is N_k(n) D_k t_k, where
    D_k = prod_{j<k} 1 / ((alpha+1+j)(j+1)) and
    N_k(n) = prod_{j<k} (j-n)(n+alpha+beta+1+j).
    """
    al, be = spec.params["alpha"], spec.params["beta"]
    half = XPoly([Fraction(1, 2), Fraction(-1, 2)])
    term = XPoly([Fraction(1)])
    terms, ds, dv = [term], [Fraction(1)], Fraction(1)
    for k in range(1, hi + 1):
        dv = dv / ((al + k) * k)
        term = term * half
        terms.append(term)
        ds.append(dv)
    rows, dk = _shared_rows(terms, ds)
    ab1 = al + be + 1
    out, pref = [], Fraction(1)
    for n in range(hi + 1):
        if n:
            pref = pref * (al + n) / n
        steps = [(ab1 + (n + j)) * (j - n) for j in range(n)]
        out.append(_terminating_sum(XPoly, pref, steps, dk, rows))
    return out


def cqjacobi_scale(hi: int, spec: FamilySpec, embedding: int = 49) -> list:
    """sigma_0 .. sigma_hi with continuous q-Jacobi p_n = sigma_n P_n, P_n
    the Askey-Wilson polynomial at ``cqjacobi_aw_spec(spec, embedding)``:
    sigma_n = q^((2alpha+1)n/4) / ((-q^((alpha+beta+1)/2); q^(1/2))_m (q; q)_n),
    m = n (e49) or 2n (e09), as a running product."""
    s = spec.base
    ea, eb = int(2 * spec.params["alpha"]), int(2 * spec.params["beta"])
    q, s2 = s ** 4, s * s
    lead = s ** (ea + 1)
    mq = -s ** (ea + eb + 2)       # -q^((alpha+beta+1)/2) q^(j/2), base q^(1/2) = s^2
    per_degree = 1 if embedding == 49 else 2
    scale, f, qn = [Fraction(1)], Fraction(1), Fraction(1)
    for _ in range(hi):
        qn *= q
        den = 1 - qn
        for _ in range(per_degree):
            den *= 1 - mq
            mq *= s2
        f = f * lead / den
        scale.append(f)
    return scale


def cqjacobi_polynomials(hi: int, spec: FamilySpec, embedding: int = 49) -> list:
    """Continuous q-Jacobi p_0 .. p_hi through the Askey-Wilson embedding
    (49 or 9): the restricted 4phi3 times :func:`cqjacobi_scale`."""
    return aw_polynomials(hi, cqjacobi_aw_spec(spec, embedding),
                          cqjacobi_scale(hi, spec, embedding))


def cqultra_scale(hi: int, spec: FamilySpec) -> list:
    """sigma_0 .. sigma_hi with continuous q-ultraspherical p_n = sigma_n P_n,
    P_n the Askey-Wilson polynomial at ``cqultra_aw_spec(spec)``:
    sigma_n = (t; q^(1/2))_n / ((q^(1/2) t; q)_n (q; q)_n), as a running product."""
    s, u = spec.base, spec.params["u"]
    t, s2 = u * u, s * s
    q = s2 * s2
    scale, f = [Fraction(1)], Fraction(1)
    tj, sq = t, s2 * t                 # t q^((n-1)/2) and q^(1/2) t q^(n-1)
    qn = Fraction(1)
    for _ in range(hi):
        qn *= q
        f = f * (1 - tj) / ((1 - sq) * (1 - qn))
        tj *= s2
        sq *= q
        scale.append(f)
    return scale


# ----------------------------------------------------------------------
# family data
# ----------------------------------------------------------------------

class _FamilyFields(NamedTuple):
    spec: FamilySpec
    space: str                       # "sym" or "x"
    n_max: int
    polys: tuple                     # native polynomials, 0 .. n_max+1
    polys_x: tuple                   # the same in x coordinates
    A: tuple                         # 0 .. n_max
    B: tuple
    C: tuple                         # C_0 = 0 by convention
    h: tuple                         # h_0 = 1
    lam: tuple                       # 0 .. n_max+1
    gamma: tuple                     # 0 .. n_max


class FamilyData(_FamilyFields):
    """Exact per-degree data for one family at one parameter point.

    ``polys`` runs to degree n_max+1 and ``lam`` to index n_max+1 so
    that every check at n <= n_max has its neighbours available.  The
    fields are an immutable tuple; this subclass adds the instance dict
    that holds the cached properties below.
    """

    @property
    def family(self) -> str:
        return self.spec.family

    @property
    def k(self) -> tuple:
        """The leading x-coefficients k_0 .. k_(n_max+1)."""
        return tuple(p.coeff(p.degree) for p in self.polys_x)

    # The point's operators and derived equation: built on first use, kept
    # in the instance dict, and so dropped with the FamilyData.  The
    # modules that make them are imported here, as they import this one.

    @cached_property
    def L(self):
        """The family's skew operator L (:func:`operators.family_L`)."""
        from . import operators
        return operators.family_L(self.spec)

    @cached_property
    def D(self):
        """The family's second-order operator D; rebuilt from :attr:`L`
        when the family has no explicit one (:func:`operators.family_D`)."""
        from . import operators
        return operators.family_D(self.spec, self.L)

    @cached_property
    def qdiff(self):
        """The second-order q-difference equation derived from this data
        (:func:`qdiff.derive_second_order_qdiff`).  It is called by its
        ``relations`` name, which the benchmark tracer and the tests patch;
        ``qdiff`` is loaded with ``relations`` when ``qaskey`` is, not here."""
        from . import relations
        return relations.derive_second_order_qdiff(self)

    # The basis change to the family and the pairing of monomials: grown on
    # first use only as far as a check reads, and dropped with the point.

    @cached_property
    def recurrence_rows(self) -> dict:
        """n -> (A_n, B_n, C_n) for the n read off the polynomials so far
        (:func:`recurrence_from_expansion`)."""
        return {}

    @cached_property
    def x_rows(self) -> list:
        """The rows of :meth:`x_row` grown so far, row k at index k."""
        return [XPoly([1 / self.polys_x[0].coeff(0)])]

    def x_row(self, k: int) -> XPoly:
        """x^k in the family basis: coefficient j is that of p_j.

        Row 0 is 1/p_0, and row m+1 is x times row m through
        x p_j = A_j p_(j+1) + B_j p_j + C_j p_(j-1) read off the polynomials,
        never the A, B, C fields, whose C_n = A_(n-1) h_n / h_(n-1) would
        make a symmetry check of x hold by construction.  This is the one
        place that raises past degree n_max + 1, where the polynomials end.
        """
        if k > self.n_max + 1:
            raise ExpansionError(f"degree {k} exceeds the available family data")
        rows = self.x_rows
        while len(rows) <= k:
            last = rows[-1]
            up = [Fraction(0)] * (len(rows) + 1)
            for j, v in enumerate(last.nums):
                A, B, C = recurrence_from_expansion(self, j)
                up[j + 1] += A * v
                up[j] += B * v
                if j:
                    up[j - 1] += C * v
            rows.append(XPoly(up).scale(Fraction(1, last.den)))
        return rows[k]

    def _x_table(self, k: int) -> tuple:
        """(rows, den) with x^m = sum_j rows[m][j] p_j / den for m <= k."""
        self.x_row(k)
        rows = self.x_rows[:k + 1]
        den = lcm(*(r.den for r in rows))
        return [[v * (den // r.den) for v in r.nums] for r in rows], den

    def gram(self, k: int) -> tuple:
        """(rows, den) with <x^i, x^j> = rows[i][j] / den for i, j <= k, or
        further where a pairing at this point has asked for more.

        <x^i, x^j> = sum_n E[i][n] E[j][n] h_n, with E the rows of
        :meth:`x_row` and n over the degrees that carry a norm (n <= n_max),
        as one integer dot product per entry.
        """
        built = vars(self).get("_gram")
        if built is None or len(built[0]) <= k:
            rows, den = self._x_table(k)
            h = XPoly(self.h[:k + 1])
            weighted = [[v * w for v, w in zip(row, h.nums)] for row in rows]
            gram = [[sum(map(mul, wi, row)) for row in rows] for wi in weighted]
            gden = den * den * h.den
            g = gcd(gden, *(v for row in gram for v in row))
            built = vars(self)["_gram"] = [[v // g for v in row] for row in gram], gden // g
        return built

    def expand(self, f) -> list:
        """Coefficients of f in the family basis: the rows of :meth:`x_row`
        combined with f's x-coefficients as weights."""
        fx = f.to_x()
        if fx.is_zero:
            return []
        rows, den = self._x_table(fx.degree)
        return list(combine(XPoly, fx.nums, rows, fx.den * den).coeffs)


def _polys_from_recurrence(A, B, C, n_hi, space):
    """Seed p_0 = 1 and iterate p_{n+1} = ((x - B_n) p_n - C_n p_{n-1}) / A_n."""
    polys = [SPACES[space].x_power(0)]
    for n in range(n_hi):
        nxt = polys[n].mul_x() - polys[n].scale(B[n])
        if n > 0:
            nxt = nxt - polys[n - 1].scale(C[n])
        polys.append(nxt.scale(1 / A[n]))
    return polys


def _norms_recursive(A, C, n_hi) -> tuple:
    h = [Fraction(1)]
    for n in range(1, n_hi + 1):
        h.append(h[n - 1] * C[n] / A[n - 1])
    return tuple(h)


# -- per-family coefficient formulas -------------------------------------

def _aw_coefficients(n_max, a, b, c, d, qp, w, g) -> tuple:
    """A_n, B_n, h_n, gamma_n (n <= n_max) and lam_n (n <= n_max + 1) from
    the closed forms, every power of q read from the :func:`_aw_tables`
    (A_0, B_0 and h_n in forms where the factors 1 - abcd/q and
    1 - abcd q^-2 have cancelled, so that abcd = q and abcd = q^2 build):

      A_n = k_n / k_(n+1) with k_n = 2^n (abcd q^(n-1); q)_n,
            A_0 = 1 / (2 (1 - abcd))
      B_n = q^(n-1) [e1 (q - abcd q^(n-1) - abcd q^n + abcd q^(2n))
                     + e3 (1 - q^n - q^(n+1) + abcd q^(2n-1))]
            / (2 (1 - abcd q^(2n-2)) (1 - abcd q^(2n))),
            B_0 = (e1 - e3) / (2 (1 - abcd))
      h_n = (q, ab, ac, ad, bc, bd, cd; q)_n
            / ((1 - abcd q^(2n-1)) (abcd; q)_(n-1)),  h_0 = 1
      lam_n = 2 (q^-n - 1) (1 - abcd q^(n-1)) / (1 - 1/q)
      gamma_n = 2 (abcd q^n - q^-n)
    """
    abcd = a * b * c * d
    e1 = a + b + c + d
    e3 = b * c * d + a * b * d + a * c * d + a * b * c
    bc, bd, cd = b * c, b * d, c * d
    A, B, h, gamma = [], [], [], []
    pochs = Fraction(1)     # (q, ab, ..., cd; q)_n / (abcd; q)_(n-1)
    for n in range(n_max + 1):
        if n:
            # k_(n+1) / k_n = 2 (1 - abcd q^(2n-1)) (1 - abcd q^(2n)) / (1 - abcd q^(n-1))
            A.append(w[n - 1] / (2 * w[2 * n - 1] * w[2 * n]))
            num = (e1 * (qp[1] - abcd * qp[n - 1] - abcd * qp[n] + abcd * qp[2 * n])
                   + e3 * (1 - qp[n] - qp[n + 1] + abcd * qp[2 * n - 1]))
            B.append(num * qp[n - 1] / (2 * w[2 * n - 2] * w[2 * n]))
            j = n - 1
            pochs = (pochs * (1 - qp[n]) * g[j] * (1 - bc * qp[j]) * (1 - bd * qp[j])
                     * (1 - cd * qp[j]) / (w[j - 1] if j else 1))
            h.append(pochs / w[2 * n - 1])
        else:
            A.append(1 / (2 * w[0]))
            B.append((e1 - e3) / (2 * w[0]))
            h.append(Fraction(1))
        gamma.append(2 * (abcd * qp[n] - qp[-n]))
    lam = [2 * (qp[-n] - 1) * w[n - 1] / (1 - qp[-1]) for n in range(n_max + 2)]
    return A, B, h, lam, gamma


def jacobi_coefficients(n: int, spec: FamilySpec):
    al, be = spec.params["alpha"], spec.params["beta"]
    ab = al + be
    if n == 0:
        A = Fraction(2) / (ab + 2)
        B = (be - al) / (ab + 2)
        C = Fraction(0)
    else:
        A = 2 * (n + 1) * (n + ab + 1) / ((2 * n + ab + 1) * (2 * n + ab + 2))
        B = (be * be - al * al) / ((2 * n + ab) * (2 * n + ab + 2))
        C = 2 * (n + al) * (n + be) / ((2 * n + ab) * (2 * n + ab + 1))
    lam = Fraction(-n * (n + ab + 1), 2)
    gamma = -(2 * n + ab + 2) / Fraction(2)
    return A, B, C, lam, gamma


# -- builders -------------------------------------------------------------

def build_family(spec: FamilySpec, n_max: int) -> FamilyData:
    validate_spec(spec, n_max)
    return FAMILIES[spec.family].build(spec, n_max)


def _build_aw(spec, n_max, aw=None, scale=None):
    """The family of ``spec`` as the Askey-Wilson family at the point ``aw``
    (``spec`` itself by default) with p_n = scale[n] P_n (scale[0] = 1).
    Then A_n = A_n^AW scale[n] / scale[n+1] and h_n = h_n^AW scale[n]^2;
    B_n, lam_n and gamma_n do not depend on the normalization."""
    hi = n_max + 1
    a, b, c, d, q = ((aw or spec).params[k] for k in "abcdq")
    qp, w, g = _aw_tables(a, b, c, d, q, hi)
    polys = tuple(_aw_phi43s(hi, a, qp, w, g, scale))
    polys_x = tuple(sym_to_x(p) for p in polys)
    A, B, hs, lam, gamma = _aw_coefficients(n_max, a, b, c, d, qp, w, g)
    if scale:
        A = [v * scale[n] / scale[n + 1] for n, v in enumerate(A)]
        hs = [v * scale[n] ** 2 for n, v in enumerate(hs)]
    C = (Fraction(0),) + tuple(A[n - 1] * hs[n] / hs[n - 1] for n in range(1, n_max + 1))
    return FamilyData(spec, "sym", n_max, polys, polys_x,
                      tuple(A), tuple(B), C, tuple(hs), tuple(lam), tuple(gamma))


def _build_jacobi(spec, n_max):
    hi = n_max + 1
    A, B, C, lam, gamma = zip(*(jacobi_coefficients(n, spec) for n in range(hi + 1)))
    polys = tuple(jacobi_polynomials(hi, spec))
    return FamilyData(spec, "x", n_max, polys, polys, A[:hi], B[:hi], C[:hi],
                      _norms_recursive(A, C, n_max), lam, gamma[:hi])


def _build_bigq(spec, n_max):
    from . import operators   # deferred: operators imports this module

    hi = n_max + 1
    polys = tuple(bigq_polynomials(hi, spec))
    A, B, C = zip(*(_recurrence_row(polys, n) for n in range(hi)))
    # slopes read off the degree-raising operator; eigenvalues accumulate
    L = operators.bigq_L(spec)
    gamma = tuple(L(L.basis(n)).coeff(n + 1) for n in range(hi))
    lam = tuple(accumulate(gamma, initial=Fraction(0)))
    return FamilyData(spec, "x", n_max, polys, polys, A, B, C,
                      _norms_recursive(A, C, n_max), lam, gamma)


def _recurrence_row(polys_x: Sequence[XPoly], n: int) -> tuple:
    """(A_n, B_n, C_n) with x p_n = A_n p_(n+1) + B_n p_n + C_n p_(n-1).

    The top three coefficients of x p_n fix them in turn: A_n = k_n / k_(n+1),
    then B_n and C_n once A_n p_(n+1) and B_n p_n are peeled off.  The
    whole of x p_n minus the three terms must then vanish, or x p_n has a
    component outside the three neighbours.
    """
    p, up = polys_x[n], polys_x[n + 1]
    A = p.coeff(n) / up.coeff(n + 1)
    B = (p.coeff(n - 1) - A * up.coeff(n)) / p.coeff(n)
    rest = p.shift_x(1) - up.scale(A) - p.scale(B)
    C = Fraction(0)
    if n >= 1:
        down = polys_x[n - 1]
        C = (p.coeff(n - 2) - A * up.coeff(n - 1) - B * p.coeff(n - 1)) / down.coeff(n - 1)
        rest = rest - down.scale(C)
    if rest:
        raise ExpansionError("x p_n expands outside its three neighbours")
    return A, B, C


def recurrence_from_expansion(fd: FamilyData, n: int):
    """(A_n, B_n, C_n), the expansion of x * p_n in the family basis, read
    off its top three coefficients and checked (:func:`_recurrence_row`),
    once per point (:attr:`FamilyData.recurrence_rows`)."""
    rows = fd.recurrence_rows
    if n not in rows:
        rows[n] = _recurrence_row(fd.polys_x, n)
    return rows[n]


# ----------------------------------------------------------------------
# seeded parameter sampling
# ----------------------------------------------------------------------

_HALF_GRID = tuple(Fraction(k, 2) for k in range(0, 6))


def _rat01(rng: random.Random, den_max: int = 8) -> Fraction:
    den = rng.randrange(2, den_max + 1)
    return Fraction(rng.randrange(1, den), den)


def _rat_signed(rng: random.Random, den_max: int = 8) -> Fraction:
    v = _rat01(rng, den_max)
    return -v if rng.random() < 0.5 else v


# ----------------------------------------------------------------------
# the family table
# ----------------------------------------------------------------------

class Family(NamedTuple):
    """One family: its ``--params`` names, the constructor that takes them in
    that order, the sampler's draw (the order of its rng calls fixes the
    sampled points), the check after the shared 0 < q < 1, and the builder."""

    params: tuple
    make: Callable                   # *params -> FamilySpec
    draw: Callable                   # rng -> FamilySpec
    check: Callable                  # (spec, n_max); raises InadmissibleParameters
    build: Callable                  # (spec, n_max) -> FamilyData


#: every family by name: the command-line names, and continuous q-Jacobi's
#: family name CQJ49 under the command-line row
FAMILIES = {
    AW: Family(
        ("a", "b", "c", "d", "q"), lambda a, b, c, d, q: aw_spec(a, b, c, d, q=q),
        lambda rng: aw_spec(_rat_signed(rng), _rat_signed(rng), _rat_signed(rng),
                            _rat_signed(rng), q=_rat01(rng)),
        lambda spec, n_max: _validate_aw(spec.params, n_max), _build_aw),
    # jacobi_spec, the only way to a Jacobi point, rejects alpha, beta <= -1
    JACOBI: Family(
        ("alpha", "beta"), jacobi_spec,
        lambda rng: jacobi_spec(rng.randrange(0, 3) - 1 + _rat01(rng, 6),
                                rng.randrange(0, 3) - 1 + _rat01(rng, 6)),
        lambda spec, n_max: None, _build_jacobi),
    CQJ: Family(
        ("alpha", "beta", "s"), cqjacobi_spec,
        lambda rng: cqjacobi_spec(rng.choice(_HALF_GRID), rng.choice(_HALF_GRID),
                                  _rat01(rng, 5)),
        _check_cqjacobi,
        lambda spec, n_max: _build_aw(spec, n_max, cqjacobi_aw_spec(spec),
                                      cqjacobi_scale(n_max + 1, spec))),
    # the build reads the denominators of the restricted Askey-Wilson point
    CQU: Family(
        ("u", "s"), cqultra_spec,
        lambda rng: cqultra_spec(_rat_signed(rng, 6), _rat01(rng, 5)),
        lambda spec, n_max: _validate_aw(cqultra_aw_spec(spec).params, n_max),
        lambda spec, n_max: _build_aw(spec, n_max, cqultra_aw_spec(spec),
                                      cqultra_scale(n_max + 1, spec))),
    BIGQ: Family(
        ("a", "b", "c", "q"), bigq_spec,
        lambda rng: bigq_spec(_rat01(rng), _rat01(rng), _rat01(rng), _rat01(rng)),
        _check_bigq, _build_bigq),
}
FAMILIES[CQJ49] = FAMILIES[CQJ]


def sample_specs(family: str, count: int, seed: int, n_max: int = 16):
    """Deterministically draw distinct admissible parameter points."""
    # string seeds hash deterministically across processes (unlike tuples)
    rng = random.Random(f"{seed}:{family}")
    row = FAMILIES[family]
    out = []
    seen = set()
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 500 * count:
            raise RuntimeError("sampler failed to find admissible parameters")
        try:
            spec = row.draw(rng)
            validate_spec(spec, n_max)
        except InadmissibleParameters:
            continue
        key = tuple(sorted(spec.params.items()))
        if key in seen:
            continue
        seen.add(key)
        out.append(spec)
    return out
