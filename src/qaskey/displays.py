"""The paper's closed-form displays: one table, :data:`DISPLAYS`, keyed by
identity, one :class:`Display` per display.  ``coeff-match`` compares each
closed form with the gamma/A/B/C combination of the family data it abbreviates.

eq18, eq26, eq59, eq54 and eq40 give eq28's gamma_n A_n and
-gamma_(n-1) C_n on one family each (:data:`STRUCTURE`); eq76 and eq77
the Askey-Wilson lowering and raising slope and rhs, whose combinations
are eq31's and eq32's coefficients; eq02 the classical expansion of
(1-x^2) P_n' = L P_n + ((alpha-beta) + (alpha+beta+2) x)/2 P_n; eq51,
eq52, eq53, eq55 and qdiff2 (:data:`WEB`) the continuous q-ultraspherical
web, each with the one coefficient rhs.  A row holds all its check needs:
its left side (the map applied to p_n: the point's L, (1-x^2) P' on
eq02's row, or its operator in :func:`qaskey.operators.cqultra_web` on
the web's) and its terms, which place its coefficients in the three-term
relation; :func:`qaskey.relations.display_check` is the one checker of
every row.  The web's rows abbreviate no gamma/A/B/C data: their generic
is None, and :func:`rows_for`, coeff-match's layout, skips them.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .families import AW, BIGQ, CQJ, CQU, FAMILIES, JACOBI, FamilySpec
from .laurent import XPoly
from .operators import cqultra_web


class Display(NamedTuple):
    families: tuple          # the command-line family names it covers
    names: tuple             # the coefficients' names, which are also its perturb slots
    closed: Callable         # (spec, n) -> the closed forms, in the order of names
    generic: Callable | None  # (fd, n) -> the combination each one abbreviates, or None
    terms: Callable          # (fd, n, *coefficients) -> (plus, mid, minus), mid = (m_0, m_1, ...)
    lhs: Callable = attrgetter("L")  # fd -> the map applied to p_n

    def slotted(self, values, perturb=None) -> tuple:
        """``values``, one per name, with 1 added to the one named ``perturb``."""
        return tuple(v + 1 if name == perturb else v for name, v in zip(self.names, values))


def eq28(fd, n):
    """The structure relation's plus and minus: gamma_n A_n, -gamma_(n-1) C_n."""
    return fd.gamma[n] * fd.A[n], -fd.gamma[n - 1] * fd.C[n]


def _classic(fd, n):
    """eq28's coefficients plus h (A_n, B_n, C_n) + ((alpha-beta)/2, 0), the
    multiplier h x + (alpha-beta)/2, h = (alpha+beta+2)/2, by the recurrence."""
    al, be = fd.spec.params["alpha"], fd.spec.params["beta"]
    h = (al + be + 2) / Fraction(2)
    plus, minus = eq28(fd, n)
    return plus + h * fd.A[n], (al - be) / 2 + h * fd.B[n], minus + h * fd.C[n]


def _aw(spec: FamilySpec, n: int):
    """q, abcd and (1 - ab q^(n-1)) (1 - ac q^(n-1)) ... (1 - cd q^(n-1))."""
    a, b, c, d, q = (spec.params[k] for k in "abcdq")
    six = Fraction(1)
    for p in (a * b, a * c, a * d, b * c, b * d, c * d):
        six *= 1 - p * q ** (n - 1)
    return q, a * b * c * d, six


def _eq18(spec: FamilySpec, n: int):
    q, abcd, six = _aw(spec, n)
    plus = -(1 - abcd * q ** (n - 1)) / (q ** n * (1 - abcd * q ** (2 * n - 1)))
    return plus, six * (1 - q ** n) / (q ** (n - 1) * (1 - abcd * q ** (2 * n - 1)))


def _eq76(spec: FamilySpec, n: int):
    """L p_n = slope (x - B_n) p_n + rhs p_(n-1), slope = 2 (abcd q^n - q^-n)."""
    q, abcd, six = _aw(spec, n)
    rhs = six * (1 + q) * (1 - q ** n) / (q ** n * (1 - abcd * q ** (2 * n - 2)))
    return 2 * (abcd * q ** n - q ** (-n)), rhs


def _eq77(spec: FamilySpec, n: int):
    """L p_n = rhs p_(n+1) - slope (x - B_n) p_n, slope = 2 (abcd q^(n-1) - q^(1-n))."""
    q, abcd, _ = _aw(spec, n)
    rhs = -(1 + q) * (1 - abcd * q ** (n - 1)) / (q ** n * (1 - abcd * q ** (2 * n)))
    return 2 * (abcd * q ** (n - 1) - q ** (1 - n)), rhs


def _eq26(spec: FamilySpec, n: int):
    if n == 0:
        # (n+al+be+1)/(2n+al+be+1) cancels to 1, and minus multiplies
        # p_(-1) = 0; the quotients below divide by zero at al+be = -1
        return Fraction(-1), Fraction(0)
    al, be = spec.params["alpha"], spec.params["beta"]
    plus = -Fraction(n + 1) * (n + al + be + 1) / (2 * n + al + be + 1)
    return plus, (n + al) * (n + be) / (2 * n + al + be + 1)


def _eq02(spec: FamilySpec, n: int):
    """At n = 0, (1-x^2) P_0' = 0, and minus multiplies P_(-1) = 0; the
    quotients below divide by zero there when al+be is 0, -1 or -2."""
    if n == 0:
        return Fraction(0), Fraction(0), Fraction(0)
    al, be = spec.params["alpha"], spec.params["beta"]
    ab = al + be
    plus = -Fraction(2 * n) * (n + 1) * (n + ab + 1) / ((2 * n + ab + 1) * (2 * n + ab + 2))
    mid = 2 * n * (n + ab + 1) * (al - be) / ((2 * n + ab) * (2 * n + ab + 2))
    minus = 2 * (n + al) * (n + be) * (n + ab + 1) / ((2 * n + ab) * (2 * n + ab + 1))
    return plus, mid, minus


def cqjacobi_gamma(n: int, spec: FamilySpec, step: int = 1) -> Fraction:
    """The slope of continuous q-Jacobi's operator of step q^(step/2):
    2 (q^(step (n+a+b+2)/2) - q^(-step n/2)); step 2 is eq59t's."""
    r = spec.base ** step
    e = int(2 * spec.params["alpha"]) + int(2 * spec.params["beta"])
    return 2 * (r ** (2 * n + e + 4) - r ** (-2 * n))


def _eq59(spec: FamilySpec, n: int):
    """gamma_n A_n and -gamma_(n-1) C_n (C_0 := 0) with continuous q-Jacobi's
    A_n and C_n as eq59 displays them; the family data derives its own from
    the Askey-Wilson build."""
    s = spec.base                                # q^(k/4) = s^k
    ea, eb = int(2 * spec.params["alpha"]), int(2 * spec.params["beta"])
    A = ((1 - s ** (4 * n + 4)) * (1 - s ** (4 * n + 2 * ea + 2 * eb + 4))
         / (2 * s ** (ea + 1) * (1 - s ** (4 * n + ea + eb + 2))
            * (1 - s ** (4 * n + ea + eb + 4))))
    C = Fraction(0) if n == 0 else (
        s ** (ea + 1) * (1 - s ** (4 * n + 2 * ea)) * (1 - s ** (4 * n + 2 * eb))
        / (2 * (1 - s ** (4 * n + ea + eb)) * (1 - s ** (4 * n + ea + eb + 2))))
    return cqjacobi_gamma(n, spec) * A, -cqjacobi_gamma(n - 1, spec) * C


def _eq54(spec: FamilySpec, n: int):
    t, q, qh = spec.params["t"], spec.q, spec.qpow(Fraction(1, 2))
    plus = -(1 - t * qh ** (2 * n + 1)) * (1 - q ** (n + 1)) / (qh ** n * (1 - t * q ** n))
    return plus, ((1 - t * qh ** (2 * n - 1)) * (1 - t * t * q ** (n - 1))
                  / (qh ** (n - 1) * (1 - t * q ** n)))


def _eq40(spec: FamilySpec, n: int):
    a, b, c, q = (spec.params[k] for k in "abcq")
    plus = ((1 - a * q ** (n + 1)) * (1 + c * q ** (n + 1)) * (1 - a * b * q ** (n + 1))
            / (q ** (n + 2) * a * c * (1 - a * b * q ** (2 * n + 1))))
    minus = -(1 - q ** n) * (1 - b * q ** n) * (1 + a * b * q ** n / c) / (1 - a * b * q ** (2 * n + 1))
    return plus, minus


def _one_minus_x2_derivative(fd):
    """P -> (1-x^2) P', eq02's left side."""
    one_minus_x2 = XPoly([1, 0, -1])
    return lambda p: one_minus_x2 * p.derivative()


def _pm(fd, n, plus, minus):
    return plus, (), minus


def _cqu(spec: FamilySpec, n: int) -> SimpleNamespace:
    """t, q, qn = q^(n/2), qin = q^(-n/2), up = 1 - q^(n+1) and
    down = 1 - t^2 q^(n-1) at degree n of a q-ultraspherical point."""
    t, q, qh = spec.params["t"], spec.q, spec.qpow(Fraction(1, 2))
    return SimpleNamespace(t=t, q=q, qn=qh ** n, qin=qh ** (-n), up=1 - q ** (n + 1),
                           down=1 - t * t * q ** (n - 1))


def _web(key: str, closed, terms) -> Display:
    """The q-ultraspherical row ``key``: closed(w) is its rhs and
    terms(w, rhs) its terms, w = :func:`_cqu` at n; its left side is
    ``cqultra_web(spec)[key]``."""
    return Display((CQU,), ("rhs",), lambda spec, n: (closed(_cqu(spec, n)),), None,
                   lambda fd, n, rhs: terms(_cqu(fd.spec, n), rhs),
                   lambda fd: cqultra_web(fd.spec)[key])


#: every display by identity key; coeff-match reads a family's rows in this order
DISPLAYS = {
    "eq18": Display((AW,), ("plus", "minus"), _eq18, eq28, _pm),
    "eq26": Display((JACOBI,), ("plus", "minus"), _eq26, eq28, _pm),
    "eq59": Display((CQJ,), ("plus", "minus"), _eq59, eq28, _pm),
    "eq54": Display((CQU,), ("plus", "minus"), _eq54, eq28, _pm),
    "eq40": Display((BIGQ,), ("plus", "minus"), _eq40, eq28, _pm),
    "eq76": Display((AW,), ("slope", "rhs"), _eq76, lambda fd, n: (
        fd.gamma[n], -(fd.gamma[n] + fd.gamma[n - 1]) * fd.C[n]),
        lambda fd, n, slope, rhs: (0, (-slope * fd.B[n], slope), rhs)),
    "eq77": Display((AW,), ("slope", "rhs"), _eq77, lambda fd, n: (
        fd.gamma[n - 1], (fd.gamma[n] + fd.gamma[n - 1]) * fd.A[n]),
        lambda fd, n, slope, rhs: (rhs, (slope * fd.B[n], -slope), 0)),
    "eq02": Display((JACOBI,), ("plus", "middle", "minus"), _eq02, _classic,
                    lambda fd, n, plus, mid, minus: (plus, (mid,), minus),
                    _one_minus_x2_derivative),
    # the continuous q-ultraspherical web: eq51 and eq52 add
    # q^(-n/2) (z + 1/z) C_n = 2 q^(-n/2) x C_n to the operator, and
    # qdiff2's weight (1 - z^2)(1 - z^-2) is 4 - 4 x^2
    "eq51": _web("eq51", lambda w: w.qin - w.t * w.t * w.qn / w.q,
                 lambda w, rhs: (0, (0, -2 * w.qin), rhs)),
    "eq52": _web("eq52", lambda w: w.qin - w.qn * w.q,
                 lambda w, rhs: (rhs, (0, -2 * w.qin), 0)),
    "eq53": _web("eq53", lambda w: w.qin * w.up, lambda w, rhs: (rhs, (), -w.qin * w.down)),
    "eq55": _web("eq55", lambda w: (w.qin + w.t * w.qn) / (1 - w.t * w.qn * w.qn),
                 lambda w, rhs: (rhs * w.up, (), rhs * w.down)),
    "qdiff2": _web("qdiff2", lambda w: w.qin + w.t * w.qn,
                   lambda w, rhs: (0, (4 * rhs, 0, -4 * rhs), 0)),
}

#: the displays of eq28's coefficients, one per family
STRUCTURE = tuple(key for key, d in DISPLAYS.items() if d.generic is eq28)

#: the q-ultraspherical displays, whose coefficients abbreviate no family data
WEB = tuple(key for key, d in DISPLAYS.items() if d.generic is None)


def rows_for(family: str) -> list:
    """The (key, display) rows on a point of ``family`` that abbreviate its
    data (generic not None), in table order; a point's family shares its
    :data:`~qaskey.families.FAMILIES` row with its command-line name."""
    row = FAMILIES[family]
    return [(k, d) for k, d in DISPLAYS.items()
            if d.generic is not None and any(FAMILIES[f] is row for f in d.families)]

