"""The verification engine: one checker per identity.

Every checker computes an exact residual polynomial; a check passes iff
the residual is the zero polynomial.  Residuals are kept (not reduced
to booleans) so a failure is diagnosable, and each checker accepts a
``perturb`` slot name that adds 1 to a single coefficient, the mutation
hook used by the negative-control tests.  A per-degree checker rejects
any degree outside its domain (:func:`_degrees`).

The identity keys, with each one's families, degree domain and perturb
slots, are listed once, in :data:`qaskey.cli.IDENTITIES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from . import operators as ops
from .families import (AW, BIGQ, CQJ09, CQJ49, CQU, JACOBI, FamilyData,
                       FamilySpec, cqjacobi_AC, cqjacobi_gamma,
                       cqjacobi_gamma_tilde, recurrence_from_expansion,
                       _polys_from_recurrence, cqjacobi_polynomials)
from .inner_product import skew_symmetry_residual, symmetry_residual
from .laurent import (LaurentPoly, NonzeroRemainder, SymLaurentPoly, XPoly,
                      Z_MINUS_ZINV)


class NoSolution(RuntimeError):
    """The difference-equation ansatz admits no nontrivial solution."""


class VerificationFailure(RuntimeError):
    """A derived candidate equation failed at a higher degree."""


@dataclass
class ResidualEntry:
    n: int
    zero: bool
    degree: int | None = None
    coeffs: tuple | None = None


@dataclass
class VerificationReport:
    identity_id: str
    family: str
    params: dict
    entries: list
    status: str = "pass"               # "pass" | "fail" | "info"
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _entry(n, resid) -> ResidualEntry:
    if isinstance(resid, Fraction):
        if resid == 0:
            return ResidualEntry(n, True)
        return ResidualEntry(n, False, 0, (resid,))
    if resid.is_zero:
        return ResidualEntry(n, True)
    top = resid.hi if isinstance(resid, LaurentPoly) else resid.degree
    return ResidualEntry(n, False, top, resid.coeffs)


def _close(identity_id, fd_or_spec, entries, info=False, **notes) -> VerificationReport:
    spec = fd_or_spec.spec if isinstance(fd_or_spec, FamilyData) else fd_or_spec
    status = "info" if info else ("pass" if all(e.zero for e in entries) else "fail")
    return VerificationReport(identity_id, spec.family, spec.sorted_params(),
                              list(entries), status, notes)


def _p1(value: Fraction, perturb, slot: str) -> Fraction:
    return value + 1 if perturb == slot else value


def _degrees(identity: str, fd: FamilyData, ns: Iterable[int], lo: int = 0) -> list:
    """The degrees ns of a per-degree check.  Each must lie in lo..fd.n_max:
    below, negative indexing would read p_{-1} or gamma_{-1} as the top
    entry; above, the check would run past the stored data."""
    ns = list(ns)
    for n in ns:
        if not lo <= n <= fd.n_max:
            raise ValueError(f"{identity} is defined for n >= {lo} up to "
                             f"n_max = {fd.n_max}, got n = {n}")
    return ns


def _below(fd: FamilyData, n: int):
    """p_{n-1}, read as the zero polynomial at n = 0 (the convention C_0 = 0)."""
    return fd.polys[n - 1] if n else type(fd.polys[0])()


def _xminusB(fd: FamilyData, n: int):
    """(x - B_n) p_n."""
    return fd.polys[n].mul_x() - fd.polys[n].scale(fd.B[n])


# ----------------------------------------------------------------------
# structure, lowering, raising
# ----------------------------------------------------------------------

def _structure(ident: str, fd: FamilyData, L, ns: Iterable[int], perturb,
               coeffs) -> VerificationReport:
    """L p_n - plus_n p_{n+1} - minus_n p_{n-1} with (plus_n, minus_n) =
    coeffs(n), one residual entry per degree; the slots are plus and minus."""
    entries = []
    for n in _degrees(ident, fd, ns):
        plus, minus = coeffs(n)
        plus = _p1(plus, perturb, "plus")
        minus = _p1(minus, perturb, "minus")
        resid = L(fd.polys[n]) - fd.polys[n + 1].scale(plus) - _below(fd, n).scale(minus)
        entries.append(_entry(n, resid))
    return _close(ident, fd, entries)


def check_structure(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    return _structure("eq28", fd, fd.L, ns, perturb,
                      lambda n: (fd.gamma[n] * fd.A[n], -fd.gamma[n - 1] * fd.C[n]))


#: the explicit structure relation's display for each family
_EXPLICIT_ID = {AW: "eq18", JACOBI: "eq26", CQJ49: "eq59", CQJ09: "eq59",
                CQU: "eq54", BIGQ: "eq40"}


def _explicit_coeffs(spec: FamilySpec, n: int):
    """Closed-form structure-relation coefficients (plus, minus), straight
    from the family's display (:data:`_EXPLICIT_ID`)."""
    if spec.family == AW:
        a, b, c, d, q = (spec.params[k] for k in "abcdq")
        abcd = a * b * c * d
        plus = -(1 - abcd * q ** (n - 1)) / (q ** n * (1 - abcd * q ** (2 * n - 1)))
        six = Fraction(1)
        for p in (a * b, a * c, a * d, b * c, b * d, c * d):
            six *= 1 - p * q ** (n - 1)
        minus = six * (1 - q ** n) / (q ** (n - 1) * (1 - abcd * q ** (2 * n - 1)))
        return plus, minus
    if spec.family == JACOBI:
        if n == 0:
            # (n+al+be+1)/(2n+al+be+1) cancels to 1, and minus multiplies
            # p_{-1} = 0; the quotients below divide by zero at al+be = -1
            return Fraction(-1), Fraction(0)
        al, be = spec.params["alpha"], spec.params["beta"]
        plus = -Fraction((n + 1)) * (n + al + be + 1) / (2 * n + al + be + 1)
        minus = (n + al) * (n + be) / (2 * n + al + be + 1)
        return plus, minus
    if spec.family in (CQJ49, CQJ09):
        A, C = cqjacobi_AC(n, spec)
        plus = cqjacobi_gamma(n, spec) * A
        minus = -cqjacobi_gamma(n - 1, spec) * C
        return plus, minus
    if spec.family == CQU:
        t, q = spec.params["t"], spec.q
        qh = spec.qpow(Fraction(1, 2))
        plus = -(1 - t * qh ** (2 * n + 1)) * (1 - q ** (n + 1)) / (qh ** n * (1 - t * q ** n))
        minus = (1 - t * qh ** (2 * n - 1)) * (1 - t * t * q ** (n - 1)) / (qh ** (n - 1) * (1 - t * q ** n))
        return plus, minus
    if spec.family == BIGQ:
        a, b, c, q = (spec.params[k] for k in "abcq")
        plus = ((1 - a * q ** (n + 1)) * (1 + c * q ** (n + 1)) * (1 - a * b * q ** (n + 1))
                / (q ** (n + 2) * a * c * (1 - a * b * q ** (2 * n + 1))))
        minus = -(1 - q ** n) * (1 - b * q ** n) * (1 + a * b * q ** n / c) / (1 - a * b * q ** (2 * n + 1))
        return plus, minus
    raise ValueError(spec.family)


def check_explicit_structure(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """The family's explicit structure relation with its closed-form
    right-hand coefficients (one residual entry per degree)."""
    return _structure(_EXPLICIT_ID[fd.family], fd, fd.L, ns, perturb,
                      lambda n: _explicit_coeffs(fd.spec, n))


def check_coefficient_match(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """Every closed-form right-hand coefficient equals the generic
    gamma/A/B/C combination it abbreviates.

    The minus coefficient multiplies p_{n-1} and is compared with
    gamma_{n-1} C_n, so the domain is 1 <= n <= fd.n_max; any other n
    raises ValueError.
    """
    entries = []
    for n in _degrees("coeff-match", fd, ns, lo=1):
        plus, minus = _explicit_coeffs(fd.spec, n)
        plus = _p1(plus, perturb, "plus")
        entries.append(_entry(n, plus - fd.gamma[n] * fd.A[n]))
        entries.append(_entry(n, minus + fd.gamma[n - 1] * fd.C[n]))
        if fd.spec.family == AW:
            mult, rhs = _aw_lowering_pieces(fd, n)
            entries.append(_entry(n, 2 * mult - fd.gamma[n]))
            entries.append(_entry(n, rhs + (fd.gamma[n] + fd.gamma[n - 1]) * fd.C[n]))
            mult, rhs = _aw_raising_pieces(fd, n)
            entries.append(_entry(n, 2 * mult - fd.gamma[n - 1]))
            entries.append(_entry(n, rhs - (fd.gamma[n] + fd.gamma[n - 1]) * fd.A[n]))
        if fd.spec.family == JACOBI:
            # the classical coefficients are the skew ones shifted by the
            # multiplier ((alpha-beta) + (alpha+beta+2) x)/2 via the recurrence
            al, be = fd.spec.params["alpha"], fd.spec.params["beta"]
            half = (al + be + 2) / Fraction(2)
            plus02, mid02, minus02 = _classic_jacobi_coeffs(fd.spec, n)
            entries.append(_entry(n, plus02 - (plus + half * fd.A[n])))
            entries.append(_entry(n, mid02 - ((al - be) / 2 + half * fd.B[n])))
            entries.append(_entry(n, minus02 - (minus + half * fd.C[n])))
    return _close("coeff-match", fd, entries)


def check_structure_tilde(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """The whole-q-step structure relation for continuous q-Jacobi."""
    spec = fd.spec
    return _structure("eq59t", fd, ops.cqjacobi_Ltilde(spec), ns, perturb,
                      lambda n: (cqjacobi_gamma_tilde(n, spec) * fd.A[n],
                                 -cqjacobi_gamma_tilde(n - 1, spec) * fd.C[n]))


def check_lowering(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    L = fd.L
    entries = []
    for n in _degrees("eq31", fd, ns):
        g, gm = fd.gamma[n], fd.gamma[n - 1]
        rhs = _p1(-(g + gm) * fd.C[n], perturb, "rhs")
        slope = _p1(g, perturb, "slope")
        resid = _xminusB(fd, n).scale(-slope) + L(fd.polys[n]) - _below(fd, n).scale(rhs)
        entries.append(_entry(n, resid))
    return _close("eq31", fd, entries)


def check_raising(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    L = fd.L
    entries = []
    for n in _degrees("eq32", fd, ns):
        g, gm = fd.gamma[n], fd.gamma[n - 1]
        rhs = _p1((g + gm) * fd.A[n], perturb, "rhs")
        slope = _p1(gm, perturb, "slope")
        resid = _xminusB(fd, n).scale(slope) + L(fd.polys[n]) - fd.polys[n + 1].scale(rhs)
        entries.append(_entry(n, resid))
    return _close("eq32", fd, entries)


def _aw_lowering_pieces(fd: FamilyData, n: int):
    a, b, c, d, q = (fd.spec.params[k] for k in "abcdq")
    abcd = a * b * c * d
    mult = abcd * q ** n - q ** (-n)              # gamma_n / 2
    six = Fraction(1)
    for p in (a * b, a * c, a * d, b * c, b * d, c * d):
        six *= 1 - p * q ** (n - 1)
    rhs = six * (1 + q) * (1 - q ** n) / (q ** n * (1 - abcd * q ** (2 * n - 2)))
    return mult, rhs


def _aw_raising_pieces(fd: FamilyData, n: int):
    a, b, c, d, q = (fd.spec.params[k] for k in "abcdq")
    abcd = a * b * c * d
    mult = abcd * q ** (n - 1) - q ** (1 - n)     # gamma_{n-1} / 2
    rhs = -(1 + q) * (1 - abcd * q ** (n - 1)) / (q ** n * (1 - abcd * q ** (2 * n)))
    return mult, rhs


def check_aw_lowering(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """L p_n - (abcd q^n - q^-n)(z + 1/z - 2 B_n) p_n = <six factors> p_{n-1}."""
    L = fd.L
    entries = []
    for n in _degrees("eq76", fd, ns):
        mult, rhs = _aw_lowering_pieces(fd, n)
        mult = _p1(mult, perturb, "mult")
        rhs = _p1(rhs, perturb, "rhs")
        resid = (L(fd.polys[n]) - _xminusB(fd, n).scale(2 * mult)
                 - _below(fd, n).scale(rhs))
        entries.append(_entry(n, resid))
    return _close("eq76", fd, entries)


def check_aw_raising(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    L = fd.L
    entries = []
    for n in _degrees("eq77", fd, ns):
        mult, rhs = _aw_raising_pieces(fd, n)
        mult = _p1(mult, perturb, "mult")
        rhs = _p1(rhs, perturb, "rhs")
        resid = (L(fd.polys[n]) + _xminusB(fd, n).scale(2 * mult)
                 - fd.polys[n + 1].scale(rhs))
        entries.append(_entry(n, resid))
    return _close("eq77", fd, entries)


def check_bangerezako(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """eq76/eq77 with (1-1/q)/2 (z - q/z) (D - lam_n) p_n added on the left.

    The added term vanishes because p_n is an eigenfunction, but it is a
    non-symmetric Laurent multiple of the eigen-residual, so the whole
    identity is checked in the full Laurent space.
    """
    D = fd.D
    L = fd.L
    q = fd.spec.q
    gz = (LaurentPoly(1, (Fraction(1),)) - LaurentPoly(-1, (q,))).scale((1 - 1 / q) / 2)
    entries = []
    for n in _degrees("bangerezako", fd, ns):
        lam = _p1(fd.lam[n], perturb, "lambda")
        eigen = D(fd.polys[n]) - fd.polys[n].scale(lam)
        extra = gz * eigen.to_laurent()
        mult, rhs = _aw_lowering_pieces(fd, n)
        low = (L(fd.polys[n]) - _xminusB(fd, n).scale(2 * mult)
               - _below(fd, n).scale(rhs)).to_laurent() + extra
        entries.append(_entry(n, low))
        mult, rhs = _aw_raising_pieces(fd, n)
        high = (L(fd.polys[n]) + _xminusB(fd, n).scale(2 * mult)
                - fd.polys[n + 1].scale(rhs)).to_laurent() + extra
        entries.append(_entry(n, high))
    return _close("bangerezako", fd, entries)


# ----------------------------------------------------------------------
# bispectral forms
# ----------------------------------------------------------------------

def check_bispectral(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """[D, X] p_n against the sequence-side commutator
    A_n (lam_{n+1} - lam_n) p_{n+1} + C_n (lam_{n-1} - lam_n) p_{n-1}."""
    D = fd.D
    X = ops.op_x(fd.space)
    entries = []
    for n in _degrees("eq71", fd, ns):
        lhs = D(X(fd.polys[n])) - X(D(fd.polys[n]))
        lam_up = _p1(fd.lam[n + 1], perturb, "lambda")
        rhs = fd.polys[n + 1].scale(fd.A[n] * (lam_up - fd.lam[n]))
        if n >= 1:
            rhs = rhs + fd.polys[n - 1].scale(fd.C[n] * (fd.lam[n - 1] - fd.lam[n]))
        entries.append(_entry(n, lhs - rhs))
    return _close("eq71", fd, entries)


def residual_q_bispectral(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """Residual of the q-commutator variant; recorded, never asserted.

    Needs q^(1/2) rational, so the sample must carry an even base
    exponent (build the Askey-Wilson point with q = s^2).
    """
    sq = fd.spec.qpow(Fraction(1, 2))
    D = fd.D
    X = ops.op_x(fd.space)
    entries = []
    for n in _degrees("eq73", fd, ns):
        lhs = D(X(fd.polys[n])).scale(sq) - X(D(fd.polys[n])).scale(1 / sq)
        lam_up = _p1(fd.lam[n + 1], perturb, "lambda")
        rhs = fd.polys[n + 1].scale(fd.A[n] * (sq * lam_up - fd.lam[n] / sq))
        rhs = rhs + fd.polys[n].scale(fd.B[n] * fd.lam[n] * (sq - 1 / sq))
        if n >= 1:
            rhs = rhs + fd.polys[n - 1].scale(fd.C[n] * (sq * fd.lam[n - 1] - fd.lam[n] / sq))
        entries.append(_entry(n, lhs - rhs))
    rep = _close("eq73", fd, entries, info=True)
    rep.notes["all_zero"] = all(e.zero for e in entries)
    return rep


# ----------------------------------------------------------------------
# Sklyanin quasi-commutation
# ----------------------------------------------------------------------

def check_sklyanin(spec: FamilySpec, e: Fraction, max_deg: int, perturb=None) -> VerificationReport:
    """L_{a,b,ce,d/e} L_{qa,qb,c/q,d/q} = L_{a,b,c,d} L_{qa,qb,ce/q,d/(eq)}."""
    from .families import aw_spec
    if e == 0:
        raise ValueError("the shift parameter e must be nonzero")
    a, b, c, d, q = (spec.params[k] for k in "abcdq")
    if perturb == "shift":
        e = e + 1
        lhs = ops.compose(ops.aw_L(aw_spec(a, b, c * e, d / e, q=q)),
                          ops.aw_L(aw_spec(q * a, q * b, c / q, d / q, q=q)))
        rhs = ops.compose(ops.aw_L(spec),
                          ops.aw_L(aw_spec(q * a, q * b, c * (e - 1) / q, d / ((e - 1) * q), q=q)))
    else:
        lhs = ops.compose(ops.aw_L(aw_spec(a, b, c * e, d / e, q=q)),
                          ops.aw_L(aw_spec(q * a, q * b, c / q, d / q, q=q)))
        rhs = ops.compose(ops.aw_L(spec),
                          ops.aw_L(aw_spec(q * a, q * b, c * e / q, d / (e * q), q=q)))
    entries = []
    for j in range(max_deg + 1):
        diff = lhs.column(j) - rhs.column(j)
        entries.append(_entry(j, diff))
    return _close("sklyanin", spec, entries, e=str(e))


# ----------------------------------------------------------------------
# the continuous q-ultraspherical web
# ----------------------------------------------------------------------

def _cqu_pieces(fd: FamilyData):
    t = fd.spec.params["t"]
    qh = fd.spec.qpow(Fraction(1, 2))
    one = LaurentPoly(0, (Fraction(1),))
    tz2 = LaurentPoly(2, (t,))
    tzm2 = LaurentPoly(-2, (t,))
    z2 = LaurentPoly(2, (Fraction(1),))
    zm2 = LaurentPoly(-2, (Fraction(1),))
    return t, qh, one, tz2, tzm2, z2, zm2


def check_cqultra_relation(fd: FamilyData, ns: Iterable[int], which: str,
                           perturb=None) -> VerificationReport:
    """One of the lowering/raising/structure relations eq51/eq52/eq53/eq55
    or the second-order q-difference formula qdiff2."""
    t, qh, one, tz2, tzm2, z2, zm2 = _cqu_pieces(fd)
    q = fd.spec.q
    zpz = LaurentPoly(-1, (Fraction(1), Fraction(0), Fraction(1)))   # z + 1/z
    entries = []
    for n in _degrees(which, fd, ns):
        Cn = fd.polys[n].to_laurent()
        up = Cn.dilate(qh)
        dn = Cn.dilate(1 / qh)
        qn = qh ** n               # q^(n/2)
        qin = qh ** (-n)           # q^(-n/2)
        if which == "eq51":
            num = (zm2 - LaurentPoly(0, (t,))) * up + (LaurentPoly(0, (t,)) - z2) * dn
            lhs = num.divide_exact(Z_MINUS_ZINV) + (zpz * Cn).scale(qin)
            rhs = _below(fd, n).to_laurent().scale(
                _p1(qin - t * t * qn / q, perturb, "rhs"))
            entries.append(_entry(n, lhs - rhs))
        elif which == "eq52":
            num = (one - tz2) * up + (tzm2 - one) * dn
            lhs = num.divide_exact(Z_MINUS_ZINV) + (zpz * Cn).scale(qin)
            rhs = fd.polys[n + 1].to_laurent().scale(
                _p1(qin - qn * q, perturb, "rhs"))
            entries.append(_entry(n, lhs - rhs))
        elif which == "eq53":
            m1 = LaurentPoly(-1, (Fraction(1),)) - LaurentPoly(1, (t,))
            lhs = m1 * up + m1.invert_z() * dn
            rhs = (fd.polys[n + 1].to_laurent().scale(
                _p1(qin * (1 - q ** (n + 1)), perturb, "rhs"))
                - _below(fd, n).to_laurent().scale(qin * (1 - t * t * q ** (n - 1))))
            entries.append(_entry(n, lhs - rhs))
        elif which == "eq55":
            a1 = one - tz2
            b1 = one + zm2
            num = (a1 * b1).scale(-1) * up + (a1 * b1).invert_z() * dn
            lhs = num.divide_exact(Z_MINUS_ZINV)
            coef = _p1((qin + t * qn) / (1 - t * q ** n), perturb, "rhs")
            rhs = (fd.polys[n + 1].to_laurent().scale(coef * (1 - q ** (n + 1)))
                   + _below(fd, n).to_laurent().scale(coef * (1 - t * t * q ** (n - 1))))
            entries.append(_entry(n, lhs - rhs))
        elif which == "qdiff2":
            a1 = (one - tz2) * (one - zm2)
            lhs = a1 * up + a1.invert_z() * dn
            wt = (one - z2) * (one - zm2)
            rhs = (wt * Cn).scale(_p1(qin + t * qn, perturb, "rhs"))
            entries.append(_entry(n, lhs - rhs))
        else:
            raise ValueError(which)
    return _close(which, fd, entries)


def check_cqultra_combination(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """eq54 as an exact linear combination of eq55 and eq53.

    The constants are fixed by computation: with p = q^(1/2),
    eq54 = (p-1)/2 * eq55 - (p+1)/2 * eq53, both at the operator level
    and for the closed right-hand coefficients.  The (q-1)/2, (q+1)/2
    pairing fails, and that nonzero residual is recorded here as a
    negative control.
    """
    t, p, one, tz2, tzm2, z2, zm2 = _cqu_pieces(fd)   # p = q^(1/2)
    q = fd.spec.q
    u, v = (p - 1) / 2, -(p + 1) / 2
    u = _p1(u, perturb, "u")
    L = fd.L
    entries = []
    printed_ok = True
    for n in _degrees("combo54", fd, ns):
        Cn = fd.polys[n].to_laurent()
        up, dn = Cn.dilate(p), Cn.dilate(1 / p)
        a1 = one - tz2
        b1 = one + zm2
        lhs55 = ((a1 * b1).scale(-1) * up + (a1 * b1).invert_z() * dn).divide_exact(Z_MINUS_ZINV)
        m1 = LaurentPoly(-1, (Fraction(1),)) - LaurentPoly(1, (t,))
        lhs53 = m1 * up + m1.invert_z() * dn
        lhs54 = L(fd.polys[n]).to_laurent()
        entries.append(_entry(n, lhs54 - lhs55.scale(u) - lhs53.scale(v)))
        # right-hand sides must combine with the same constants
        qn, qin = p ** n, p ** (-n)
        r54p, r54m = _explicit_coeffs(fd.spec, n)
        c55 = (qin + t * qn) / (1 - t * q ** n)
        entries.append(_entry(n, r54p - (u * c55 * (1 - q ** (n + 1))
                                         + v * qin * (1 - q ** (n + 1)))))
        entries.append(_entry(n, r54m - (u * c55 * (1 - t * t * q ** (n - 1))
                                         - v * qin * (1 - t * t * q ** (n - 1)))))
        if lhs54 == lhs55.scale((q - 1) / 2) + lhs53.scale((q + 1) / 2):
            printed_ok = False   # would contradict the computed constants
    # operator-level decomposition eq53 = eq52 - eq51, parameter-free
    m52a, m51a = one - tz2, LaurentPoly(0, (t,)) - zm2
    lhs_op = m52a + m51a            # coefficient of C_n[q^(1/2) z] times (z-1/z)
    entries.append(_entry(-1, lhs_op - (LaurentPoly(-1, (Fraction(1),))
                                        - LaurentPoly(1, (t,))) * Z_MINUS_ZINV))
    return _close("combo54", fd, entries,
                  u=str(u), v=str(v), printed_constants_fail=printed_ok)


def check_cqultra_nonskew(fd: FamilyData, max_deg: int, perturb=None) -> VerificationReport:
    """The eq53 operator is *not* skew symmetric; this check passes only
    when the skew residual is nonzero (entry.zero encodes "passed")."""
    op = fd.L if perturb == "op" else ops.cqultra_nonskew_op(fd.spec)
    res = skew_symmetry_residual(op, fd, max_deg)
    entries = [ResidualEntry(max_deg, res != 0)]
    return _close("eq53-nonskew", fd, entries, skew_residual=str(res))


# ----------------------------------------------------------------------
# spectral / operator-level checks
# ----------------------------------------------------------------------

def check_eigen(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    D = fd.D
    entries = []
    for n in _degrees("eigen", fd, ns):
        lam = _p1(fd.lam[n], perturb, "lambda")
        entries.append(_entry(n, D(fd.polys[n]) - fd.polys[n].scale(lam)))
    return _close("eigen", fd, entries)


def check_gamma_lambda(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    entries = []
    for n in _degrees("gamma-lambda", fd, ns):
        g = _p1(fd.gamma[n], perturb, "gamma")
        entries.append(_entry(n, g - (fd.lam[n + 1] - fd.lam[n])))
    return _close("gamma-lambda", fd, entries)


def check_commutator(fd: FamilyData, max_deg: int, perturb=None) -> VerificationReport:
    """[D, X] = L, column by column up to the degree cap, for the point's
    own operators."""
    D = fd.D
    if perturb == "normalization":
        inner_D = D
        D = ops.PolyOperator(lambda f: inner_D(f).scale(2), inner_D.space, 0, "2D")
    comm = ops.commutator(D, ops.op_x(D.space))
    L = fd.L
    entries = []
    for j in range(max_deg + 1):
        entries.append(_entry(j, comm.column(j) - L.column(j)))
    return _close("commutator", fd, entries)


def check_d_from_l(fd: FamilyData, max_deg: int, perturb=None) -> VerificationReport:
    """D rebuilt from the point's L differs from the point's D by a scalar
    multiple of the identity (the scalar is lam_0 of the explicit D, here 0)."""
    D2 = ops.d_from_l(fd.L)
    D1 = fd.D
    if perturb == "normalization":
        base = D1
        D1 = ops.PolyOperator(lambda f: base(f).scale(2), base.space, 0, "2D")
    const = None
    entries = []
    for j in range(max_deg + 1):
        diff = D2.column(j) - D1.column(j)
        off_diag = diff - XPoly((Fraction(0),) * j + (diff.coeff(j),))
        entries.append(_entry(j, off_diag))
        cj = diff.coeff(j)
        if const is None:
            const = cj
        entries.append(_entry(j, cj - const))
    return _close("d-from-l", fd, entries, identity_multiple=str(const))


def check_string_jacobi(spec: FamilySpec, max_deg: int, perturb=None) -> VerificationReport:
    """[X, L] acts as multiplication by -(1-x^2); the sign is the
    computed one (the display fixes only the shape 1 - x^2)."""
    L = ops.jacobi_L(spec)
    X = ops.op_x("x")
    comm = ops.commutator(X, L)
    mult = XPoly([-1, 0, 1])
    if perturb == "shape":
        mult = mult + XPoly([1])
    entries = []
    for j in range(max_deg + 1):
        basis = XPoly((Fraction(0),) * j + (Fraction(1),))
        entries.append(_entry(j, comm(basis) - mult * basis))
    return _close("string", spec, entries)


def check_skew_l(fd: FamilyData, max_deg: int, perturb=None) -> VerificationReport:
    op = fd.L
    if perturb == "op":
        base = op
        op = ops.PolyOperator(lambda f: base(f) + f, base.space, base.degree_shift, "L+1")
    res = skew_symmetry_residual(op, fd, max_deg)
    return _close("skew-l", fd, [_entry(max_deg, res)])


def check_sym_d(fd: FamilyData, max_deg: int, perturb=None) -> VerificationReport:
    op = fd.D
    if perturb == "op":
        D, L = op, fd.L
        op = ops.PolyOperator(lambda f: D(f) + L(f), D.space, 1, "D+L")
    res = symmetry_residual(op, fd, max_deg)
    return _close("sym-d", fd, [_entry(max_deg, res)])


def check_sym_x(fd: FamilyData, max_deg: int, perturb=None) -> VerificationReport:
    op = ops.op_x(fd.space)
    if perturb == "op":
        X, L = op, fd.L
        op = ops.PolyOperator(lambda f: X(f) + L(f), X.space, 1, "X+L")
    res = symmetry_residual(op, fd, max_deg)
    return _close("sym-x", fd, [_entry(max_deg, res)])


def check_orthogonality(fd: FamilyData, max_deg: int, perturb=None) -> VerificationReport:
    """p_m expands to the unit vector at m, and the norms from the closed
    forms agree with the recursion h_n = h_{n-1} C_n / A_{n-1} driven by
    expansion-derived recurrence coefficients."""
    entries = []
    for m in range(max_deg + 1):
        co = fd.expand(fd.polys[m])
        bad = sum(abs(c) for i, c in enumerate(co) if i != m) + abs(co[m] - 1)
        entries.append(_entry(m, bad))
    h = Fraction(1)
    for n in range(1, max_deg + 1):
        An1 = recurrence_from_expansion(fd, n - 1)[0]
        Cn = recurrence_from_expansion(fd, n)[2]
        h = h * Cn / An1
        entries.append(_entry(n, h - _p1(fd.h[n], perturb, "h")))
    return _close("orthogonality", fd, entries)


def check_dual_path(fd: FamilyData, max_n: int, perturb=None) -> VerificationReport:
    """Family-specific independent reconstruction of the polynomials."""
    spec = fd.spec
    entries = []
    if spec.family in (AW, BIGQ, JACOBI, CQU):
        A = (_p1(fd.A[0], perturb, "A0"),) + fd.A[1:]
        rebuilt = _polys_from_recurrence(A, fd.B, fd.C, max_n, fd.space)
        for n in range(max_n + 1):
            entries.append(_entry(n, rebuilt[n] - fd.polys[n]))
    if spec.family in (CQJ49, CQJ09):
        # fd.polys is the build through the family's own embedding
        if spec.family == CQJ49:
            e49, e09 = fd.polys, cqjacobi_polynomials(max_n, spec, 9)
        else:
            e49, e09 = cqjacobi_polynomials(max_n, spec, 49), fd.polys
        for n in range(max_n + 1):
            entries.append(_entry(n, e49[n] - e09[n]))
    if spec.family == BIGQ:
        for n in range(max_n + 1):
            entries.append(_entry(n, fd.polys[n](1) - 1))
    return _close("dual-path", fd, entries)


# ----------------------------------------------------------------------
# classical Jacobi structure relation
# ----------------------------------------------------------------------

def _classic_jacobi_coeffs(spec: FamilySpec, n: int):
    """The plus, middle and minus coefficients of (1-x^2) P_n' in
    P_(n+1), P_n and P_(n-1), straight from the classical display.

    At n = 0, (1-x^2) P_0' = 0 gives plus = middle = 0, and minus, which
    multiplies P_(-1) = 0, is taken as 0 too; the quotients below divide
    by zero there when al+be is 0, -1 or -2."""
    if n == 0:
        return Fraction(0), Fraction(0), Fraction(0)
    al, be = spec.params["alpha"], spec.params["beta"]
    ab = al + be
    plus = -Fraction(2 * n) * (n + 1) * (n + ab + 1) / ((2 * n + ab + 1) * (2 * n + ab + 2))
    mid = 2 * n * (n + ab + 1) * (al - be) / ((2 * n + ab) * (2 * n + ab + 2))
    minus = 2 * (n + al) * (n + be) * (n + ab + 1) / ((2 * n + ab) * (2 * n + ab + 1))
    return plus, mid, minus


def check_classic_jacobi_structure(fd: FamilyData, ns: Iterable[int],
                                   perturb=None) -> VerificationReport:
    """(1-x^2) P_n' against its three-term expansion with the classical
    closed-form coefficients."""
    one_minus_x2 = XPoly([1, 0, -1])
    entries = []
    for n in _degrees("eq02", fd, ns):
        plus, mid, minus = _classic_jacobi_coeffs(fd.spec, n)
        mid = _p1(mid, perturb, "middle")
        plus = _p1(plus, perturb, "plus")
        lhs = one_minus_x2 * fd.polys[n].derivative()
        rhs = (fd.polys[n + 1].scale(plus) + fd.polys[n].scale(mid)
               + _below(fd, n).scale(minus))
        entries.append(_entry(n, lhs - rhs))
    return _close("eq02", fd, entries)


# ----------------------------------------------------------------------
# second-order q-difference equation: derivation and the reduction chain
# ----------------------------------------------------------------------

@dataclass
class DerivedQDiff:
    """A(.) p_n(shift+) + B(.) p_n + C(.) p_n(shift-) = lam_n E(.) p_n.

    ``alternates`` holds further independent equations of the same shape
    when the parameter point is degenerate enough to admit them (for
    instance a four-parameter family containing the pair {a, -a}).
    """
    A: object
    B: object
    C: object
    E: object
    lambdas: tuple
    alternates: tuple = ()


def _nullspace(rows, width):
    """Exact nullspace basis of the given linear system, fraction-free.

    Each nonzero row is cleared to integers once, as the numerators of the
    :class:`XPoly` it forms padded to ``width``, and eliminated
    Gauss-Jordan style in ``int``: a row becomes
    (pv/g) row - (f/g) pivot_row with g = gcd(pv, f), divided by its
    content so that it stays primitive.  Pivots are chosen as in Fraction
    elimination (the first nonzero entry of the column at or below the
    current row), and scaling a row changes neither its zero pattern nor
    the reduced echelon form it stands for, so entry pc of the basis
    vector for free column fc is -mat[r][fc] / mat[r][pc]: the basis is
    exactly the one Fraction elimination gives, with one ``Fraction``
    built per basis entry.
    """
    mat = [list(p.nums) + [0] * (width - len(p.nums)) for p in map(XPoly, rows) if p]
    pivots = []
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        prow = mat[r]
        pv = prow[col]
        for i, row in enumerate(mat):
            f = row[col]
            if f and i != r:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                row = [a * x - b * y for x, y in zip(row, prow)]
                content = gcd(*row)
                mat[i] = [x // content for x in row] if content > 1 else row
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = Fraction(-mat[ri][fc], mat[ri][pc])
        basis.append(vec)
    return basis


def derive_second_order_qdiff(fd: FamilyData, max_rows: int = 5,
                              degree: int | None = None) -> DerivedQDiff:
    """Solve for the family's second-order q-difference equation.

    Assembles the exact linear system from low-degree rows (adding rows
    until the solution space is one-dimensional), then determines every
    higher eigenvalue by exact division and verifies the equation for
    all stored degrees.  Raises NoSolution if the ansatz degree is too
    small even after escalation, VerificationFailure if a candidate
    fails at higher degree.
    """
    degrees = (degree,) if degree else ((4, 5) if fd.space == "sym" else (2, 3))
    last_exc = None
    for d in degrees:
        try:
            return _derive_qdiff_at_degree(fd, d, max_rows)
        except NoSolution as exc:
            last_exc = exc
    raise last_exc


def _derive_qdiff_at_degree(fd: FamilyData, w: int, max_rows: int) -> DerivedQDiff:
    q = fd.spec.q
    sym = fd.space == "sym"
    if sym:
        shift_up = lambda p: p.to_laurent().dilate(q)
        shift_dn = lambda p: p.to_laurent().dilate(1 / q)
        plain = lambda p: p.to_laurent()
        nA, nE = 2 * w + 1, w + 1          # A on -w..w (C = A(1/z)), E symmetric 0..w
    else:
        shift_up = lambda p: p.compose_scale(q)
        shift_dn = lambda p: p.compose_scale(1 / q)
        plain = lambda p: p
        nA, nE = 2 * (w + 1), w + 1        # A and C on 0..w, E on 0..w
    def row_block(n, Fslot, width):
        """Linear equations: A*(S+ p - p) + C*(S- p - p) - F_n*p = 0, each
        row scaled by the common denominator of the three polynomials."""
        up, dn, pl = shift_up(fd.polys[n]), shift_dn(fd.polys[n]), plain(fd.polys[n])
        g1 = up - pl
        g2 = dn - pl
        den = lcm(g1.den, g2.den, pl.den)

        def at(p):
            """exponent -> numerator of p over den."""
            f, lo = den // p.den, (p.lo if sym else 0)
            return {k: v * f for k, v in enumerate(p.nums, lo) if v}.get

        c1, c2, cp = at(g1), at(g2), at(pl)
        rows = []
        if sym:
            for m in range(-(n + w) - 1, n + w + 2):
                row = [0] * width
                for j in range(-w, w + 1):
                    # A_j z^j from A, and A_j z^-j from C = A(1/z)
                    row[j + w] += c1(m - j, 0) + c2(m + j, 0)
                for kk in range(nE):
                    val = cp(m - kk, 0) + (cp(m + kk, 0) if kk else 0)
                    row[nA + Fslot * nE + kk] -= val
                rows.append(row)
            return rows
        for m in range(0, n + w + 2):
            row = [0] * width
            for j in range(w + 1):
                row[j] += c1(m - j, 0)
                row[w + 1 + j] += c2(m - j, 0)
            for kk in range(nE):
                row[nA + Fslot * nE + kk] -= cp(m - kk, 0)
            rows.append(row)
        return rows

    basis = None
    prev_dim = None
    n_rows = 2
    for n_rows in range(2, max_rows + 1):
        width = nA + n_rows * nE           # unknowns: A (and C), F_1 .. F_{n_rows}
        rows = []
        for n in range(1, n_rows + 1):
            rows += row_block(n, n - 1, width)
        basis = _nullspace(rows, width)
        if len(basis) == 0:
            raise NoSolution(f"ansatz degree {w} admits no equation")
        if len(basis) == 1:
            break
        # a stable dimension > 1 signals a genuinely degenerate point with
        # several independent equations; split it into eigen-rays below
        if prev_dim == len(basis) and n_rows >= 3:
            break
        prev_dim = len(basis)
    if len(basis) > 2:
        raise NoSolution(f"ansatz degree {w} leaves a {len(basis)}-dim space")

    rays = _eigen_rays(basis, nA, nE)
    if not rays:
        raise NoSolution(f"no eigen-structured ray in a {len(basis)}-dim space")

    solutions = []
    for vec in rays:
        lead = next(v for v in vec if v != 0)
        vec = [v / lead for v in vec]
        if sym:
            Araw = LaurentPoly(-w, vec[:nA])
            Craw = Araw.invert_z()
            Epoly = SymLaurentPoly(vec[nA:nA + nE]).to_laurent()
        else:
            Araw = XPoly(vec[:w + 1])
            Craw = XPoly(vec[w + 1:nA])
            Epoly = XPoly(vec[nA:nA + nE])
        if Epoly.is_zero or Araw.is_zero:
            continue
        Braw = -(Araw + Craw)

        def as_scalar(ratio):
            if ratio.is_zero:
                return Fraction(0)
            if sym:
                if ratio.lo == 0 and len(ratio.coeffs) == 1:
                    return ratio.coeff(0)
            elif ratio.degree == 0:
                return ratio.coeff(0)
            raise VerificationFailure("eigen-row is not a scalar multiple of E p_n")

        # lambda_1 = 1 by the normalization E = F_1; recover the rest exactly
        try:
            lambdas = [Fraction(0), Fraction(1)]
            for n in range(2, fd.n_max + 1):
                lhs = (Araw * shift_up(fd.polys[n]) + Braw * plain(fd.polys[n])
                       + Craw * shift_dn(fd.polys[n]))
                lambdas.append(as_scalar(lhs.divide_exact(Epoly * plain(fd.polys[n]))))
        except (VerificationFailure, NonzeroRemainder):
            continue   # satisfied the sampled rows only; not a genuine ray
        solutions.append(DerivedQDiff(Araw, Braw, Craw, Epoly, tuple(lambdas)))
    if not solutions:
        if len(basis) == 1:
            raise VerificationFailure("candidate equation fails at higher degree")
        raise NoSolution("no ray verifies at every stored degree")
    # deterministic primary: the widest-support coefficient wins, then the
    # lexicographically smallest normalized vector
    def sort_key(sol):
        width_a = len(sol.A.coeffs)
        return (-width_a, [str(c) for c in sol.A.coeffs])
    solutions.sort(key=sort_key)
    primary = solutions[0]
    primary.alternates = tuple(solutions[1:])
    return primary


def _rational_sqrt(v: Fraction):
    from math import isqrt
    if v < 0:
        return None
    pn, pd = isqrt(v.numerator), isqrt(v.denominator)
    if pn * pn == v.numerator and pd * pd == v.denominator:
        return Fraction(pn, pd)
    return None


def _eigen_rays(basis, nA, nE):
    """Rays in the solution span whose per-degree right-hand sides are all
    proportional to a single eigen-weight (always the case in dimension
    one; in dimension two the proportionality condition F_2 || F_1 cuts
    out up to two rational rays)."""
    if len(basis) == 1:
        return [basis[0]]
    v1, v2 = basis
    f1 = (v1[nA:nA + nE], v2[nA:nA + nE])
    f2 = (v1[nA + nE:nA + 2 * nE], v2[nA + nE:nA + 2 * nE])

    def minors(t=None, at_infinity=False):
        out = []
        for i in range(nE):
            for j in range(i + 1, nE):
                if at_infinity:
                    out.append(f2[1][i] * f1[1][j] - f2[1][j] * f1[1][i])
                else:
                    a = (f2[0][i] + t * f2[1][i]) * (f1[0][j] + t * f1[1][j])
                    b = (f2[0][j] + t * f2[1][j]) * (f1[0][i] + t * f1[1][i])
                    out.append(a - b)
        return out

    # each minor is a quadratic in t; collect candidate rational roots
    candidates = set()
    for i in range(nE):
        for j in range(i + 1, nE):
            c2 = f2[1][i] * f1[1][j] - f2[1][j] * f1[1][i]
            c1 = (f2[0][i] * f1[1][j] + f2[1][i] * f1[0][j]
                  - f2[0][j] * f1[1][i] - f2[1][j] * f1[0][i])
            c0 = f2[0][i] * f1[0][j] - f2[0][j] * f1[0][i]
            if c2 == 0:
                if c1 != 0:
                    candidates.add(-c0 / c1)
                continue
            root = _rational_sqrt(c1 * c1 - 4 * c2 * c0)
            if root is not None:
                candidates.add((-c1 + root) / (2 * c2))
                candidates.add((-c1 - root) / (2 * c2))
    rays = []
    for t in sorted(candidates):
        if all(m == 0 for m in minors(t)):
            rays.append([a + t * b for a, b in zip(v1, v2)])
    if all(m == 0 for m in minors(at_infinity=True)):
        rays.append(list(v2))
    return rays


def check_qdiff_recovery(fd: FamilyData, reference_lambdas, perturb=None) -> VerificationReport:
    """Some derived equation's eigenvalues must be proportional to the
    reference ones (degenerate points may carry extra equations; the
    reference one has to be among them).  Uses the point's derived
    equation, :attr:`FamilyData.qdiff`."""
    qd = fd.qdiff
    ref1 = reference_lambdas[1]
    best = None
    for cand in (qd,) + qd.alternates:
        entries = []
        for n in range(fd.n_max + 1):
            ref_n = (_p1(reference_lambdas[n], perturb, "reference")
                     if n == 2 else reference_lambdas[n])
            entries.append(_entry(n, cand.lambdas[n] * ref1 - ref_n))
        if all(e.zero for e in entries):
            return _close("qdiff-derive", fd, entries,
                          n_equations=1 + len(qd.alternates))
        best = best or entries
    return _close("qdiff-derive", fd, best, n_equations=1 + len(qd.alternates))


def reduce_bigq_chain(fd: FamilyData, ns: Iterable[int], perturb=None) -> tuple:
    """The two-step rewrite of the big q-Jacobi structure relation into
    the (x-1)(bx+c) D_q form, eliminating p_n(x/q) with the derived
    q-difference equation and then x p_n with the recurrence.

    Returns (eq42 report, eq41 report).  Uses the point's derived
    equation, :attr:`FamilyData.qdiff`.
    """
    spec = fd.spec
    a, b, c, q = (spec.params[k] for k in "abcq")
    qd = fd.qdiff
    G = XPoly([1, b / c - 1, -b / c])                    # (1-x)(1+ b x / c)
    M = XPoly([1, 1 / (c * q) - 1 / (a * q), -1 / (a * c * q * q)])
    J = qd.C * G + M * qd.A
    T = J.scale(-(1 - q)).divide_exact(qd.C)
    shape = XPoly([-c, c - b, b])                        # (x-1)(bx+c)
    kappa_poly = T.divide_exact(shape)
    if kappa_poly.is_zero or kappa_poly.degree != 0:
        raise VerificationFailure("eliminated leading factor is not (x-1)(bx+c)")
    kappa = kappa_poly.coeff(0)

    from .qcalc import q_derivative
    entries42, entries41 = [], []
    for n in _degrees("the eq42/eq41 chain", fd, ns):
        Sn = (J + M * (qd.B - qd.E.scale(qd.lambdas[n]))).scale(Fraction(-1))
        affine = Sn.divide_exact(qd.C).divide_x_exact()
        if not affine.is_zero and affine.degree > 1:
            raise VerificationFailure("middle coefficient is not affine in x")
        delta, beta = affine.coeff(1) / kappa, affine.coeff(0) / kappa
        plus, minus = _explicit_coeffs(fd.spec, n)
        alpha_n, gamma_n = plus / kappa, minus / kappa
        lhs = shape * q_derivative(fd.polys[n], q)
        rhs42 = (fd.polys[n + 1].scale(_p1(alpha_n, perturb, "alpha"))
                 + (XPoly([beta, delta]) * fd.polys[n])
                 + _below(fd, n).scale(gamma_n))
        entries42.append(_entry(n, lhs - rhs42))
        at = alpha_n + delta * fd.A[n]
        bt = beta + delta * fd.B[n]
        ct = gamma_n + delta * fd.C[n]
        at = _p1(at, perturb, "a-tilde")
        rhs41 = (fd.polys[n + 1].scale(at) + fd.polys[n].scale(bt)
                 + _below(fd, n).scale(ct))
        entries41.append(_entry(n, lhs - rhs41))
    return (_close("eq42", fd, entries42), _close("eq41", fd, entries41))
