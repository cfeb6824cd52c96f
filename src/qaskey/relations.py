"""The verification engine: the identity checkers, one of which serves every display row.

Every checker computes an exact residual polynomial; a check passes iff
the residual is the zero polynomial.  Residuals are kept (not reduced
to booleans) so a failure is diagnosable, and each checker accepts a
``perturb`` slot name that adds 1 to a single coefficient, the mutation
hook used by the negative-control tests.

Every per-degree relation has one shape: its left side applied to p_n
equals plus p_{n+1} + mid(x) p_n + minus p_{n-1}.  :func:`_residuals`
is the one place that forms that residual: it rejects any degree outside
the check's domain (:func:`_degrees`) and reads p_{-1} as zero.  A
display supplies only its left side (the point's L or D, another
operator, or a map of p_n) and a coefficient function
(n, perturb) -> (plus, mid, minus), where mid holds the coefficients
(m_0, m_1, ...) of a polynomial in x and the slots are applied inside.
The closed forms of the paper's displays are not written here: each is a
row of :data:`qaskey.displays.DISPLAYS`, which names its left side too,
and :func:`display_check` is the one checker of every row: the structure
relation's closed forms on each family, the Askey-Wilson lowering and
raising relations (closed or generic), eq02 and the continuous
q-ultraspherical web (eq51, eq52, eq53, eq55, qdiff2), whose eq55 and
eq53 rows :func:`check_cqultra_combination` reads as well.

The second-order q-difference equation is derived from the data, not
stated, by the solver in :mod:`qaskey.qdiff`; this module keeps what
reads it, :func:`check_qdiff_recovery` and the big q-Jacobi chain
(:func:`reduce_bigq_chain`, checked by :func:`check_eq42` and
:func:`check_eq41`), and re-exports its entry point and its two errors.

The spectral and operator-level checks (eigen, commutator, the
(skew-)symmetries, orthogonality, dual-path, ...) are in
:mod:`qaskey.operator_checks`, which reports through the helpers here.

The identity keys, with each one's families, degree domain and perturb
slots, are listed once, in :data:`qaskey.registry.IDENTITIES`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, NamedTuple

from . import operators as ops
from .displays import DISPLAYS, cqjacobi_gamma, eq28, rows_for
from .families import FamilyData, aw_spec, cqjacobi_aw_spec
from .inner_product import skew_symmetry_residual
from .laurent import LaurentPoly, XPoly, Z_MINUS_ZINV
# read through this module: runner.CHECK_ERRORS names the two errors here, and
# FamilyData.qdiff calls the solver by this name, which tracers and tests patch
from .qdiff import NoSolution, VerificationFailure, derive_second_order_qdiff


class ResidualEntry(NamedTuple):
    """One degree's residual: whether it is zero and, when it is not, its
    top degree and coefficients.  Every passing entry of degree n is the
    one shared object :func:`_zero` gives; a nonzero entry keeps its own."""

    n: int
    zero: bool
    degree: int | None = None
    coeffs: tuple | None = None


class VerificationReport:
    """One identity's entries at one parameter point; ``status`` is
    "pass", "fail" or "info", and ``notes`` is the dict a check gives at
    construction, or None where it gives none."""

    __slots__ = ("identity_id", "family", "params", "entries", "status", "notes")

    def __init__(self, identity_id: str, family: str, params: dict, entries: list,
                 status: str = "pass", notes: dict | None = None):
        self.identity_id = identity_id
        self.family = family
        self.params = params
        self.entries = entries
        self.status = status
        self.notes = notes

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@cache
def _zero(n) -> ResidualEntry:
    """The passing entry of degree n, one object per n for every report:
    a passing entry costs its report one list slot.  The records are
    immutable and compare equal to fresh ones, and pickle keeps the
    sharing within one blob."""
    return ResidualEntry(n, True)


def _entry(n, resid) -> ResidualEntry:
    """The entry of the residual ``resid`` (a Fraction or a polynomial) at
    degree n: the shared :func:`_zero` entry when it is zero."""
    if isinstance(resid, Fraction):
        if resid == 0:
            return _zero(n)
        return ResidualEntry(n, False, 0, (resid,))
    if resid.is_zero:
        return _zero(n)
    top = resid.hi if isinstance(resid, LaurentPoly) else resid.degree
    return ResidualEntry(n, False, top, resid.coeffs)


def _close(identity_id, fd: FamilyData, entries, info=False, **notes) -> VerificationReport:
    """The report of ``entries``; its params are the point's own mapping,
    so every report of one point shares it, and its notes are None where
    the check gives none."""
    status = "info" if info else ("pass" if all(e.zero for e in entries) else "fail")
    return VerificationReport(identity_id, fd.family, fd.spec.params,
                              list(entries), status, notes or None)


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


# ----------------------------------------------------------------------
# the three-term residual
# ----------------------------------------------------------------------

def _times(mid, p):
    """mid(x) p, for the coefficients mid = (m_0, m_1, ...) of a polynomial in x."""
    out = p.scale(mid[-1])
    for m in reversed(mid[:-1]):
        out = out.mul_x() + p.scale(m)
    return out


def _residuals(ident: str, fd: FamilyData, ns: Iterable[int], perturb, lhs, *coeffs):
    """(n, lhs(p_n) - plus p_{n+1} - mid(x) p_n - minus p_{n-1}) for each
    degree n of ns and, at each n, each coefficient function in turn, with
    (plus, mid, minus) = coeffs(n, perturb); p_{-1} is zero (C_0 = 0)."""
    polys = fd.polys
    for n in _degrees(ident, fd, ns):
        left = lhs(polys[n])
        for fn in coeffs:
            plus, mid, minus = fn(n, perturb)
            resid = left - polys[n + 1].scale(plus)
            if mid:
                resid = resid - _times(mid, polys[n])
            if n:
                resid = resid - polys[n - 1].scale(minus)
            yield n, resid


def _relation(ident: str, fd: FamilyData, ns: Iterable[int], perturb, lhs,
              coeffs) -> VerificationReport:
    """One display's report: one residual entry per degree."""
    return _close(ident, fd, [_entry(n, r) for n, r in
                              _residuals(ident, fd, ns, perturb, lhs, coeffs)])


def _plus_minus(plus, minus, perturb):
    """A structure relation's coefficients, with the slots plus and minus."""
    return _p1(plus, perturb, "plus"), (), _p1(minus, perturb, "minus")


# ----------------------------------------------------------------------
# structure, lowering, raising
# ----------------------------------------------------------------------

def check_structure(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """L p_n = gamma_n A_n p_{n+1} - gamma_{n-1} C_n p_{n-1}."""
    return _relation("eq28", fd, ns, perturb, fd.L,
                     lambda n, pt: _plus_minus(*eq28(fd, n), pt))


def _display(key: str, fd: FamilyData, generic: bool = False):
    """The coefficient function (n, perturb) -> (plus, mid, minus) of the
    display ``key`` at the point fd, placed by its terms: its closed forms,
    or with ``generic`` the combinations of fd's data they abbreviate."""
    d = DISPLAYS[key]
    if generic:
        return lambda n, pt: d.terms(fd, n, *d.slotted(d.generic(fd, n), pt))
    return lambda n, pt: d.terms(fd, n, *d.slotted(d.closed(fd.spec, n), pt))


def display_check(key: str, ident: str | None = None, generic: bool = False) -> Callable:
    """The checker (fd, ns, perturb=None) of the display row ``key``: its
    left side applied to p_n against its terms, reported under ``ident``
    (default ``key``); with ``generic`` the coefficients are the combinations
    of fd's data that the closed forms abbreviate.  The row is read at each
    call, so a row swapped into :data:`~qaskey.displays.DISPLAYS` takes effect."""
    def check(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
        return _relation(ident or key, fd, ns, perturb, DISPLAYS[key].lhs(fd),
                         _display(key, fd, generic))
    return check


def check_coefficient_match(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """Every closed-form coefficient of the displays on the point's family
    (:func:`~qaskey.displays.rows_for`, in table order) equals the
    gamma/A/B/C combination it abbreviates; the slot plus moves each
    coefficient named plus.

    eq28's minus coefficient multiplies p_{n-1} and is compared with
    -gamma_{n-1} C_n, so the domain is 1 <= n <= fd.n_max; any other n
    raises ValueError.
    """
    rows = [d for _, d in rows_for(fd.family)]
    return _close("coeff-match", fd, [
        _entry(n, closed - generic) for n in _degrees("coeff-match", fd, ns, lo=1)
        for d in rows for closed, generic in zip(d.slotted(d.closed(fd.spec, n), perturb),
                                                 d.generic(fd, n))])


def check_structure_tilde(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """The whole-q-step structure relation for continuous q-Jacobi, whose
    L is the Askey-Wilson one at the second embedding's point (base q)."""
    spec = fd.spec
    Lt = ops.aw_L(cqjacobi_aw_spec(spec, 9))
    return _relation("eq59t", fd, ns, perturb, Lt, lambda n, pt: _plus_minus(
        cqjacobi_gamma(n, spec, 2) * fd.A[n], -cqjacobi_gamma(n - 1, spec, 2) * fd.C[n], pt))


def check_bangerezako(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """eq76/eq77 with (1-1/q)/2 (z - q/z) (D - lam_n) p_n added on the left.

    The added term vanishes because p_n is an eigenfunction, but it is a
    non-symmetric Laurent multiple of the eigen-residual, so the whole
    identity is checked in the full Laurent space.
    """
    D = fd.D
    q = fd.spec.q
    gz = (LaurentPoly(1, (Fraction(1),)) - LaurentPoly(-1, (q,))).scale((1 - 1 / q) / 2)

    @cache
    def extra(n):
        lam = _p1(fd.lam[n], perturb, "lambda")
        return gz * (D(fd.polys[n]) - fd.polys[n].scale(lam)).to_laurent()

    halves = _residuals("bangerezako", fd, ns, None, fd.L,
                        _display("eq76", fd), _display("eq77", fd))
    return _close("bangerezako", fd, [_entry(n, r.to_laurent() + extra(n)) for n, r in halves])


# ----------------------------------------------------------------------
# bispectral forms
# ----------------------------------------------------------------------

def check_bispectral(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """[D, X] p_n against the sequence-side commutator
    A_n (lam_{n+1} - lam_n) p_{n+1} + C_n (lam_{n-1} - lam_n) p_{n-1}."""
    D, X, lam = fd.D, ops.op_x(fd.space), fd.lam
    return _relation("eq71", fd, ns, perturb, lambda p: D(X(p)) - X(D(p)),
                     lambda n, pt: (fd.A[n] * (_p1(lam[n + 1], pt, "lambda") - lam[n]), (),
                                    fd.C[n] * (lam[n - 1] - lam[n])))


def residual_q_bispectral(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """Residual of the q-commutator variant; recorded, never asserted.

    Needs q^(1/2) rational, so the sample must carry an even base
    exponent (build the Askey-Wilson point with q = s^2).
    """
    sq = fd.spec.qpow(Fraction(1, 2))
    D, X, lam = fd.D, ops.op_x(fd.space), fd.lam

    def coeffs(n, pt):
        return (fd.A[n] * (sq * _p1(lam[n + 1], pt, "lambda") - lam[n] / sq),
                (fd.B[n] * lam[n] * (sq - 1 / sq),),
                fd.C[n] * (sq * lam[n - 1] - lam[n] / sq))

    def lhs(p):
        return D(X(p)).scale(sq) - X(D(p)).scale(1 / sq)
    entries = [_entry(n, r) for n, r in _residuals("eq73", fd, ns, perturb, lhs, coeffs)]
    return _close("eq73", fd, entries, info=True, all_zero=all(e.zero for e in entries))


# ----------------------------------------------------------------------
# Sklyanin quasi-commutation
# ----------------------------------------------------------------------

def check_sklyanin(fd: FamilyData, max_deg: int, perturb=None,
                   e: Fraction = Fraction(2)) -> VerificationReport:
    """L_{a,b,ce,d/e} L_{qa,qb,c/q,d/q} = L_{a,b,c,d} L_{qa,qb,ce/q,d/(eq)}
    at the point's a, b, c, d; the slot shift builds the left side with e + 1."""
    if e == 0:
        raise ValueError("the shift parameter e must be nonzero")
    spec = fd.spec
    a, b, c, d, q = (spec.params[k] for k in "abcdq")
    el = _p1(e, perturb, "shift")
    lhs = ops.compose(ops.aw_L(aw_spec(a, b, c * el, d / el, q=q)),
                      ops.aw_L(aw_spec(q * a, q * b, c / q, d / q, q=q)))
    rhs = ops.compose(ops.aw_L(spec),
                      ops.aw_L(aw_spec(q * a, q * b, c * e / q, d / (e * q), q=q)))
    return _close("sklyanin", fd, [_entry(j, lhs.column(j) - rhs.column(j))
                                   for j in range(max_deg + 1)], e=str(el))


# ----------------------------------------------------------------------
# the continuous q-ultraspherical web
# ----------------------------------------------------------------------

def check_cqultra_combination(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """eq54 as an exact linear combination of eq55 and eq53, the
    coefficients of both read from their display rows.

    The constants are fixed by computation: with p = q^(1/2),
    eq54 = (p-1)/2 * eq55 - (p+1)/2 * eq53, both at the operator level
    and for the closed right-hand coefficients.  The (q-1)/2, (q+1)/2
    pairing fails, and that nonzero residual is recorded here as a
    negative control.
    """
    t, q = fd.spec.params["t"], fd.spec.q
    p = fd.spec.qpow(Fraction(1, 2))
    u, v = (p - 1) / 2, -(p + 1) / 2
    u = _p1(u, perturb, "u")
    web = ops.cqultra_web(fd.spec)
    eq55, eq53 = _display("eq55", fd), _display("eq53", fd)
    entries = []
    printed_ok = True
    for n in _degrees("combo54", fd, ns):
        pn = fd.polys[n]
        lhs54, lhs55, lhs53 = fd.L(pn), web["eq55"](pn), web["eq53"](pn)
        entries.append(_entry(n, lhs54 - lhs55.scale(u) - lhs53.scale(v)))
        # right-hand sides must combine with the same constants
        r54p, r54m = DISPLAYS["eq54"].closed(fd.spec, n)
        p55, _, m55 = eq55(n, None)
        p53, _, m53 = eq53(n, None)
        entries.append(_entry(n, r54p - (u * p55 + v * p53)))
        entries.append(_entry(n, r54m - (u * m55 + v * m53)))
        if lhs54 == lhs55.scale((q - 1) / 2) + lhs53.scale((q + 1) / 2):
            printed_ok = False   # would contradict the computed constants
    # operator-level decomposition eq53 = eq52 - eq51, parameter-free: the
    # shift coefficients 1 - t z^2 and z^-2 - t differ by (z^-1 - t z)(z - 1/z)
    v52, v51, u53 = (LaurentPoly(lo, (1, 0, -t)) for lo in (0, -2, -1))
    entries.append(_entry(-1, v52 - v51 - u53 * Z_MINUS_ZINV))
    return _close("combo54", fd, entries,
                  u=str(u), v=str(v), printed_constants_fail=printed_ok)


def check_cqultra_nonskew(fd: FamilyData, max_deg: int, perturb=None) -> VerificationReport:
    """The eq53 operator is *not* skew symmetric; this check passes only
    when the skew residual is nonzero (entry.zero encodes "passed")."""
    op = fd.L if perturb == "op" else ops.cqultra_nonskew_op(fd.spec)
    res = skew_symmetry_residual(op, fd, max_deg)
    entries = [_zero(max_deg) if res else ResidualEntry(max_deg, False)]
    return _close("eq53-nonskew", fd, entries, skew_residual=str(res))


# ----------------------------------------------------------------------
# the derived q-difference equation: recovery and the reduction chain
# ----------------------------------------------------------------------

def check_qdiff_recovery(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """The derived equation's eigenvalues must be proportional to the
    point's own: lam_n lam'_1 = lam'_n at each n of ns, for the derived
    lam (lam_1 = 1) and the point's lam'.  Uses the point's derived
    equation, :attr:`FamilyData.qdiff`."""
    ns = _degrees("qdiff-derive", fd, ns)
    lam, ref = fd.qdiff.lambdas, fd.lam
    return _close("qdiff-derive", fd, [
        _entry(n, lam[n] * ref[1] - (_p1(ref[n], perturb, "reference") if n == 2 else ref[n]))
        for n in ns])


def reduce_bigq_chain(fd: FamilyData) -> tuple:
    """The two-step rewrite of the big q-Jacobi structure relation into
    the (x-1)(bx+c) D_q form, eliminating p_n(x/q) with the derived
    q-difference equation (:attr:`FamilyData.qdiff`) and then x p_n with
    the recurrence: (lhs, table), the operator p -> (x-1)(bx+c) D_q p and
    n -> eq42's (plus, (beta, delta), minus), both shared by eq42 and eq41.
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

    @cache
    def table42(n):
        """eq42's (plus, (beta, delta), minus), the middle coefficient
        beta + delta x eliminated with the derived equation."""
        Sn = (J + M * (qd.B - qd.E.scale(qd.lambdas[n]))).scale(Fraction(-1))
        affine = Sn.divide_exact(qd.C).divide_x_exact()
        if not affine.is_zero and affine.degree > 1:
            raise VerificationFailure("middle coefficient is not affine in x")
        plus, minus = DISPLAYS["eq40"].closed(spec, n)
        return plus / kappa, (affine.coeff(0) / kappa, affine.coeff(1) / kappa), minus / kappa

    lhs = ops.PolyOperator(lambda p: shape * q_derivative(p, q), "x", 1, "(x-1)(bx+c)D_q")
    return lhs, table42


def check_eq42(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """The chain's first step: eq40 over kappa, with the middle beta + delta x."""
    lhs, table = fd.chain
    return _relation("eq42", fd, ns, perturb, lhs,
                     lambda n, pt: (_p1(table(n)[0], pt, "alpha"), *table(n)[1:]))


def check_eq41(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """The second step: x p_n = A_n p_{n+1} + B_n p_n + C_n p_{n-1}
    removes eq42's delta x."""
    lhs, table = fd.chain

    def coeffs(n, pt):
        plus, (beta, delta), minus = table(n)
        return (_p1(plus + delta * fd.A[n], pt, "a-tilde"), (beta + delta * fd.B[n],),
                minus + delta * fd.C[n])
    return _relation("eq41", fd, ns, perturb, lhs, coeffs)
