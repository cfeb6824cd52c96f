"""The hypergeometric sums of the families and their closed-form coefficients.

Every family is built from its hypergeometric sum, for every degree
0..N in one pass per point by the one terminating-series builder,
:func:`_series`: the Askey-Wilson 4phi3, the big q-Jacobi 3phi2 and the
Jacobi 2F1 (:func:`aw_polynomials`, :func:`bigq_polynomials`,
:func:`jacobi_polynomials`) each give it their n-free term polynomials
(az, a/z; q)_k, (x; q)_k or ((1-x)/2)^k, the n-free and n-dependent
parts of the term ratio and their prefactors, and it sums each p_n as
one integer combination of the shared rows; the q-sums read every power
of q from one table.  Prefactors, norms and recurrence coefficients are
running products over n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .laurent import SymLaurentPoly, XPoly, combine
from .specs import FamilySpec, cqjacobi_aw_spec


# ----------------------------------------------------------------------
# hypergeometric constructions
# ----------------------------------------------------------------------

def _q_table(q: Fraction, lo: int, hi: int) -> dict:
    """q**e for lo <= e <= hi."""
    return {e: q ** e for e in range(lo, hi + 1)}


def _series(cls, hi: int, factor, ratio, prefs, step) -> list:
    """The terminating series p_n = prefs[n] sum_{k<=n} N_k(n) D_k t_k as
    ``cls`` polynomials for n = 0..hi, where the term ratio splits into the
    n-free t_k = t_(k-1) factor(k) and D_k = D_(k-1) ratio(k), and
    N_k(n) = prod_{j<k} step(n, j) (t_0 = D_0 = 1).  The t_k and D_k are
    formed once per point, and each p_n is one laurent.combine over the
    integer numerators of the t_k."""
    term, dv = cls([Fraction(1)]), Fraction(1)
    rows, dk = [term.nums], [dv]
    for k in range(1, hi + 1):
        term, dv = term * factor(k), dv * ratio(k)
        rows.append(term.nums)
        dk.append(dv / term.den)
    out = []
    for n in range(hi + 1):
        r = prefs[n]
        coeffs = [r * dk[0]]
        for j in range(n):
            r *= step(n, j)
            coeffs.append(r * dk[j + 1])
        out.append(combine(cls, coeffs, rows))
    return out


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
    u = {e: 1 - qp[e] for e in range(-hi, 0)}

    def factor(k):
        aj = a * qp[k - 1]
        return SymLaurentPoly([1 + aj * aj, -aj])

    prefs = accumulate(range(1, hi + 1), lambda p, n: p * g[n - 1] / a, initial=Fraction(1))
    return _series(SymLaurentPoly, hi, factor, lambda k: q / (g[k - 1] * (1 - qp[k])),
                   [p * f for p, f in zip(prefs, scale)] if scale else list(prefs),
                   lambda n, j: u[j - n] * w[n - 1 + j])


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
    u = {e: 1 - qp[e] for e in range(-hi, 0)}
    ab = a * b
    w = {e: 1 - ab * qp[e] for e in range(1, 2 * hi + 1)}
    return _series(XPoly, hi, lambda k: XPoly([1, -qp[k - 1]]),
                   lambda k: q / ((1 - a * qp[k]) * (1 + c * qp[k]) * (1 - qp[k])),
                   [Fraction(1)] * (hi + 1), lambda n, j: u[j - n] * w[n + 1 + j])


def jacobi_polynomials(hi: int, spec: FamilySpec) -> list:
    """P_n = (alpha+1)_n / n! 2F1(-n, n+alpha+beta+1; alpha+1; (1-x)/2)
    (DLMF 18.5.7), degree n in x, for n = 0..hi.

    With t_k = ((1-x)/2)^k the k-th term is N_k(n) D_k t_k, where
    D_k = prod_{j<k} 1 / ((alpha+1+j)(j+1)) and
    N_k(n) = prod_{j<k} (j-n)(n+alpha+beta+1+j).
    """
    al, be = spec.params["alpha"], spec.params["beta"]
    half = XPoly([Fraction(1, 2), Fraction(-1, 2)])
    ab1 = al + be + 1
    prefs = accumulate(range(1, hi + 1), lambda p, n: p * (al + n) / n, initial=Fraction(1))
    return _series(XPoly, hi, lambda k: half, lambda k: 1 / ((al + k) * k), list(prefs),
                   lambda n, j: (ab1 + (n + j)) * (j - n))


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

