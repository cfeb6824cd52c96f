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
raising relations (closed or generic) and eq02.

The second-order q-difference equation is derived from the data, not
stated: :func:`derive_second_order_qdiff` is one solver for both
polynomial spaces, which differ only in one table, :data:`_QDIFF_SPACES`.

The identity keys, with each one's families, degree domain and perturb
slots, are listed once, in :data:`qaskey.cli.IDENTITIES`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from math import gcd, lcm
from typing import Callable, Iterable, NamedTuple

from . import operators as ops
from .displays import DISPLAYS, cqjacobi_gamma, eq28, rows_for
from .families import (AW, BIGQ, CQJ49, CQU, JACOBI, FamilyData, FamilySpec,
                       aw_spec, cqjacobi_aw_spec, recurrence_from_expansion,
                       _polys_from_recurrence, cqjacobi_polynomials)
from .inner_product import skew_symmetry_residual, symmetry_residual
from .laurent import (LaurentPoly, NonzeroRemainder, SymLaurentPoly, XPoly,
                      Z_MINUS_ZINV)


class NoSolution(RuntimeError):
    """The difference-equation ansatz admits no nontrivial solution."""


class VerificationFailure(RuntimeError):
    """A derived candidate equation failed at a higher degree."""


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


def _close(identity_id, fd_or_spec, entries, info=False, **notes) -> VerificationReport:
    """The report of ``entries``; its params are the point's own mapping,
    so every report of one point shares it, and its notes are None where
    the check gives none."""
    spec = fd_or_spec.spec if isinstance(fd_or_spec, FamilyData) else fd_or_spec
    status = "info" if info else ("pass" if all(e.zero for e in entries) else "fail")
    return VerificationReport(identity_id, spec.family, spec.params,
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

def check_sklyanin(spec: FamilySpec, e: Fraction, max_deg: int, perturb=None) -> VerificationReport:
    """L_{a,b,ce,d/e} L_{qa,qb,c/q,d/q} = L_{a,b,c,d} L_{qa,qb,ce/q,d/(eq)};
    the slot shift builds the left side with e + 1."""
    if e == 0:
        raise ValueError("the shift parameter e must be nonzero")
    a, b, c, d, q = (spec.params[k] for k in "abcdq")
    el = _p1(e, perturb, "shift")
    lhs = ops.compose(ops.aw_L(aw_spec(a, b, c * el, d / el, q=q)),
                      ops.aw_L(aw_spec(q * a, q * b, c / q, d / q, q=q)))
    rhs = ops.compose(ops.aw_L(spec),
                      ops.aw_L(aw_spec(q * a, q * b, c * e / q, d / (e * q), q=q)))
    return _close("sklyanin", spec, [_entry(j, lhs.column(j) - rhs.column(j))
                                     for j in range(max_deg + 1)], e=str(el))


# ----------------------------------------------------------------------
# the continuous q-ultraspherical web
# ----------------------------------------------------------------------

def _cqu_coeffs(fd: FamilyData, which: str, n: int, perturb=None):
    """The coefficients of one q-ultraspherical display, whose left side
    is ``ops.cqultra_web(fd.spec)[which]``; the slot is rhs."""
    t, q = fd.spec.params["t"], fd.spec.q
    qh = fd.spec.qpow(Fraction(1, 2))
    qn, qin = qh ** n, qh ** (-n)                  # q^(n/2), q^(-n/2)
    up, down = 1 - q ** (n + 1), 1 - t * t * q ** (n - 1)
    # eq51 and eq52 add q^(-n/2) (z + 1/z) C_n = 2 q^(-n/2) x C_n to the operator
    if which == "eq51":
        return 0, (0, -2 * qin), _p1(qin - t * t * qn / q, perturb, "rhs")
    if which == "eq52":
        return _p1(qin - qn * q, perturb, "rhs"), (0, -2 * qin), 0
    if which == "eq53":
        return _p1(qin * up, perturb, "rhs"), (), -qin * down
    if which == "eq55":
        coef = _p1((qin + t * qn) / (1 - t * q ** n), perturb, "rhs")
        return coef * up, (), coef * down
    if which == "qdiff2":     # the weight (1 - z^2)(1 - z^-2) is 4 - 4 x^2
        coef = _p1(qin + t * qn, perturb, "rhs")
        return 0, (4 * coef, 0, -4 * coef), 0
    raise ValueError(which)


def check_cqultra_relation(fd: FamilyData, ns: Iterable[int], which: str,
                           perturb=None) -> VerificationReport:
    """One of the lowering/raising/structure relations eq51/eq52/eq53/eq55
    or the second-order q-difference formula qdiff2."""
    return _relation(which, fd, ns, perturb, ops.cqultra_web(fd.spec)[which],
                     partial(_cqu_coeffs, fd, which))


def check_cqultra_combination(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """eq54 as an exact linear combination of eq55 and eq53.

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
    entries = []
    printed_ok = True
    for n in _degrees("combo54", fd, ns):
        pn = fd.polys[n]
        lhs54, lhs55, lhs53 = fd.L(pn), web["eq55"](pn), web["eq53"](pn)
        entries.append(_entry(n, lhs54 - lhs55.scale(u) - lhs53.scale(v)))
        # right-hand sides must combine with the same constants
        r54p, r54m = DISPLAYS["eq54"].closed(fd.spec, n)
        p55, _, m55 = _cqu_coeffs(fd, "eq55", n)
        p53, _, m53 = _cqu_coeffs(fd, "eq53", n)
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
# spectral / operator-level checks
# ----------------------------------------------------------------------

def check_eigen(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    """D p_n = lam_n p_n."""
    return _relation("eigen", fd, ns, perturb, fd.D,
                     lambda n, pt: (0, (_p1(fd.lam[n], pt, "lambda"),), 0))


def check_gamma_lambda(fd: FamilyData, ns: Iterable[int], perturb=None) -> VerificationReport:
    return _close("gamma-lambda", fd, [
        _entry(n, _p1(fd.gamma[n], perturb, "gamma") - (fd.lam[n + 1] - fd.lam[n]))
        for n in _degrees("gamma-lambda", fd, ns)])


def _control(op, perturb, slot: str, action, name: str, shift=None):
    """``op``, or under the slot ``slot`` the operator f -> action(op, f)."""
    if perturb != slot:
        return op
    return ops.PolyOperator(lambda f: action(op, f), op.space,
                            op.degree_shift if shift is None else shift, name)


def _doubled(D, f):
    return D(f).scale(2)


def check_commutator(fd: FamilyData, max_deg: int, perturb=None) -> VerificationReport:
    """[D, X] = L, column by column up to the degree cap, for the point's
    own operators."""
    D = _control(fd.D, perturb, "normalization", _doubled, "2D")
    comm = ops.commutator(D, ops.op_x(D.space))
    return _close("commutator", fd, [_entry(j, comm.column(j) - fd.L.column(j))
                                     for j in range(max_deg + 1)])


def check_d_from_l(fd: FamilyData, max_deg: int, perturb=None) -> VerificationReport:
    """D rebuilt from the point's L differs from the point's D by a scalar
    multiple of the identity (the scalar is lam_0 of the explicit D, here 0)."""
    D2 = ops.d_from_l(fd.L)
    D1 = _control(fd.D, perturb, "normalization", _doubled, "2D")
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
    return _close("string", spec, [_entry(j, comm(XPoly.x_power(j)) - mult.shift_x(j))
                                   for j in range(max_deg + 1)])


def check_skew_l(fd: FamilyData, max_deg: int, perturb=None) -> VerificationReport:
    op = _control(fd.L, perturb, "op", lambda L, f: L(f) + f, "L+1")
    return _close("skew-l", fd, [_entry(max_deg, skew_symmetry_residual(op, fd, max_deg))])


def check_sym_d(fd: FamilyData, max_deg: int, perturb=None) -> VerificationReport:
    op = _control(fd.D, perturb, "op", lambda D, f: D(f) + fd.L(f), "D+L", 1)
    return _close("sym-d", fd, [_entry(max_deg, symmetry_residual(op, fd, max_deg))])


def check_sym_x(fd: FamilyData, max_deg: int, perturb=None) -> VerificationReport:
    op = _control(ops.op_x(fd.space), perturb, "op", lambda X, f: X(f) + fd.L(f), "X+L")
    return _close("sym-x", fd, [_entry(max_deg, symmetry_residual(op, fd, max_deg))])


def check_orthogonality(fd: FamilyData, max_deg: int, perturb=None) -> VerificationReport:
    """p_m expands to the unit vector at m, and the norms from the closed
    forms agree with the recursion h_n = h_{n-1} C_n / A_{n-1} driven by
    expansion-derived recurrence coefficients."""
    entries = []
    for m in range(max_deg + 1):
        co = fd.expand(fd.polys[m])
        bad = sum(abs(c) for i, c in enumerate(co) if i != m) + abs(co[m] - 1)
        entries.append(_entry(m, bad))
    rows = [recurrence_from_expansion(fd, n) for n in range(max_deg + 1)]
    h = Fraction(1)
    for n in range(1, max_deg + 1):
        h = h * rows[n][2] / rows[n - 1][0]
        entries.append(_entry(n, h - _p1(fd.h[n], perturb, "h")))
    return _close("orthogonality", fd, entries)


def check_dual_path(fd: FamilyData, max_n: int, perturb=None) -> VerificationReport:
    """Family-specific independent reconstruction of the polynomials."""
    spec = fd.spec
    entries = []
    if spec.family in (AW, BIGQ, JACOBI, CQU):
        A = (_p1(fd.A[0], perturb, "A0"),) + fd.A[1:]
        rebuilt = _polys_from_recurrence(A, fd.B, fd.C, max_n, fd.space)
        entries += [_entry(n, rebuilt[n] - fd.polys[n]) for n in range(max_n + 1)]
    if spec.family == CQJ49:
        # fd.polys is the build through the first embedding
        e49, e09 = fd.polys, cqjacobi_polynomials(max_n, spec, 9)
        # A_0 p_1 = (x - B_0) p_0 on both sides; the slot A0 moves e49's A_0
        a0 = _p1(fd.A[0], perturb, "A0")
        entries += [_entry(n, e49[1].scale(a0) - e09[1].scale(fd.A[0]) if n == 1
                           else e49[n] - e09[n]) for n in range(max_n + 1)]
    if spec.family == BIGQ:
        entries += [_entry(n, fd.polys[n](1) - 1) for n in range(max_n + 1)]
    return _close("dual-path", fd, entries)


# ----------------------------------------------------------------------
# second-order q-difference equation: derivation and the reduction chain
# ----------------------------------------------------------------------

class DerivedQDiff(NamedTuple):
    """A(.) p_n(shift+) + B(.) p_n + C(.) p_n(shift-) = lam_n E(.) p_n,
    with lam_0 = 0 and lam_1 = 1; A, B, C and E are Laurent polynomials in
    z on the symmetric side and polynomials in x on the x side."""

    A: LaurentPoly | XPoly
    B: LaurentPoly | XPoly
    C: LaurentPoly | XPoly
    E: LaurentPoly | XPoly
    lambdas: tuple


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


class _QDiffSpace(NamedTuple):
    """How the q-difference ansatz reads in one polynomial space."""

    lift: Callable        # p_n as the working type
    shift: Callable       # (f, r) -> f at r times its argument
    make: Callable        # (lo, coefficients) -> a polynomial of the working type
    degrees: tuple        # the ansatz degrees, tried in turn
    unknowns: Callable    # w -> (A and C unknowns, E unknowns), as (part, exponent) terms


#: per space: on the symmetric side C = A(1/z) and E is symmetric, so
#: A_j stands at z^j in A and z^-j in C, and E_k at z^k and z^-k.  Where two
#: Askey-Wilson parameters are sqrt(q) and -sqrt(q), 1 - q z^2 cancels from
#: the equation and degrees 4 and 5 leave several; degree 3 or 2 gives one.
_QDIFF_SPACES = {
    "sym": _QDiffSpace(
        SymLaurentPoly.to_laurent, LaurentPoly.dilate, LaurentPoly, (4, 5, 3, 2),
        lambda w: ([(("A", j), ("C", -j)) for j in range(-w, w + 1)],
                   [tuple(("E", e) for e in {k, -k}) for k in range(w + 1)])),
    "x": _QDiffSpace(
        XPoly.to_x, XPoly.compose_scale, lambda lo, cs: XPoly(cs).shift_x(lo), (2, 3),
        lambda w: ([(("A", j),) for j in range(w + 1)] + [(("C", j),) for j in range(w + 1)],
                   [(("E", k),) for k in range(w + 1)])),
}


def derive_second_order_qdiff(fd: FamilyData) -> DerivedQDiff:
    """Solve for the family's second-order q-difference equation.

    At each ansatz degree of the space in turn, assembles the exact linear
    system from the equations at n = 1, 2, ... (adding degrees until the
    solution space is one-dimensional or stops shrinking), then takes the
    first eigen-ray of that space (:func:`_eigen_rays`) whose eigenvalues
    follow by exact division at every stored degree.  Raises NoSolution if
    the last ansatz degree leaves no such ray, VerificationFailure if the
    one candidate fails at a higher degree.
    """
    sp = _QDIFF_SPACES[fd.space]
    q = fd.spec.q
    shifted = [(sp.shift(p, q), p, sp.shift(p, 1 / q)) for p in map(sp.lift, fd.polys)]
    *first, last = sp.degrees
    for w in first:
        try:
            return _derive_qdiff_at_degree(sp, shifted, fd.n_max, w)
        except NoSolution:
            pass
    return _derive_qdiff_at_degree(sp, shifted, fd.n_max, last)


def _row_block(shifted_n, unknowns):
    """The equations A (S+ p - p) + C (S- p - p) - E p = 0 at one degree,
    one integer row per power over the common denominator of the three
    polynomials, with one entry per unknown."""
    up, p, dn = shifted_n
    parts = {"A": up - p, "C": dn - p, "E": -p}
    den = lcm(*(g.den for g in parts.values()))
    rows = {}
    for col, terms in enumerate(unknowns):
        for part, e in terms:
            g = parts[part]
            f = den // g.den
            for m, v in enumerate(g.nums, g.lo + e):
                if v:
                    rows.setdefault(m, [0] * len(unknowns))[col] += v * f
    return [rows[m] for m in sorted(rows)]


def _derive_qdiff_at_degree(sp: _QDiffSpace, shifted, n_max: int, w: int) -> DerivedQDiff:
    ac, e = sp.unknowns(w)
    unknowns, nA, nE = ac + e, len(ac), len(e)
    # the columns are the A (and C) unknowns, then E = F_1, F_2, ... for the
    # degrees n = 1, 2, ..., n_rows; each degree's block is formed once
    blocks = []
    prev_dim = None
    for n_rows in range(2, 6):
        blocks += [_row_block(shifted[n], unknowns) for n in range(len(blocks) + 1, n_rows + 1)]
        rows = [r[:nA] + [0] * (slot * nE) + r[nA:] + [0] * ((n_rows - 1 - slot) * nE)
                for slot, block in enumerate(blocks) for r in block]
        basis = _nullspace(rows, nA + n_rows * nE)
        if not basis:
            raise NoSolution(f"ansatz degree {w} admits no equation")
        # a stable dimension > 1 signals a genuinely degenerate point with
        # several independent equations; split it into eigen-rays below
        if len(basis) in (1, prev_dim):
            break
        prev_dim = len(basis)
    if len(basis) > 2:
        raise NoSolution(f"ansatz degree {w} leaves a {len(basis)}-dim space")

    rays = _eigen_rays(basis, nA, nE)
    if not rays:
        raise NoSolution(f"no eigen-structured ray in a {len(basis)}-dim space")
    for vec in rays:
        lead = next(v for v in vec if v != 0)
        coeffs = {"A": {}, "C": {}, "E": {}}
        for v, terms in zip(vec, unknowns):
            for part, k in terms:
                coeffs[part][k] = v / lead
        A, C, E = (sp.make(min(c), [c[k] for k in sorted(c)]) for c in coeffs.values())
        if E.is_zero or A.is_zero:
            continue
        B = -(A + C)
        # lambda_1 = 1 by the normalization E = F_1; recover the rest exactly
        lambdas = [Fraction(0), Fraction(1)]
        for up, p, dn in shifted[2:n_max + 1]:
            try:
                ratio = (A * up + B * p + C * dn).divide_exact(E * p)
            except NonzeroRemainder:
                break       # the ray satisfied the sampled rows only
            if ratio.lo or len(ratio.nums) > 1:
                break       # not a scalar multiple of E p_n
            lambdas.append(ratio.coeff(0))
        else:
            return DerivedQDiff(A, B, C, E, tuple(lambdas))
    if len(basis) == 1:
        raise VerificationFailure("candidate equation fails at higher degree")
    raise NoSolution("no ray verifies at every stored degree")


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
    # along v1 + t v2 each 2x2 minor of (F_2, F_1) is c2 t^2 + c1 t + c0;
    # the ray at infinity (v2) is the one where every c2 vanishes
    minors = [(f2[1][i] * f1[1][j] - f2[1][j] * f1[1][i],
               f2[0][i] * f1[1][j] + f2[1][i] * f1[0][j]
               - f2[0][j] * f1[1][i] - f2[1][j] * f1[0][i],
               f2[0][i] * f1[0][j] - f2[0][j] * f1[0][i])
              for i in range(nE) for j in range(i + 1, nE)]
    candidates = set()
    for c2, c1, c0 in minors:
        if c2 == 0:
            if c1 != 0:
                candidates.add(-c0 / c1)
            continue
        root = _rational_sqrt(c1 * c1 - 4 * c2 * c0)
        if root is not None:
            candidates.add((-c1 + root) / (2 * c2))
            candidates.add((-c1 - root) / (2 * c2))
    rays = [[a + t * b for a, b in zip(v1, v2)] for t in sorted(candidates)
            if all((c2 * t + c1) * t + c0 == 0 for c2, c1, c0 in minors)]
    if all(c2 == 0 for c2, _, _ in minors):
        rays.append(list(v2))
    return rays


def check_qdiff_recovery(fd: FamilyData, reference_lambdas, perturb=None) -> VerificationReport:
    """The derived equation's eigenvalues must be proportional to the
    reference ones: lam_n ref_1 = ref_n at every stored n (lam_1 = 1).
    Uses the point's derived equation, :attr:`FamilyData.qdiff`."""
    lam, ref = fd.qdiff.lambdas, reference_lambdas
    return _close("qdiff-derive", fd, [
        _entry(n, lam[n] * ref[1] - (_p1(ref[n], perturb, "reference") if n == 2 else ref[n]))
        for n in range(fd.n_max + 1)])


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

    def eq42(n, pt):
        plus, mid, minus = table42(n)
        return _p1(plus, pt, "alpha"), mid, minus

    def eq41(n, pt):
        # x p_n = A_n p_{n+1} + B_n p_n + C_n p_{n-1} removes eq42's delta x
        plus, (beta, delta), minus = table42(n)
        return (_p1(plus + delta * fd.A[n], pt, "a-tilde"), (beta + delta * fd.B[n],),
                minus + delta * fd.C[n])

    pairs = list(_residuals("the eq42/eq41 chain", fd, ns, perturb,
                            lambda p: shape * q_derivative(p, q), eq42, eq41))
    return (_close("eq42", fd, [_entry(n, r) for n, r in pairs[0::2]]),
            _close("eq41", fd, [_entry(n, r) for n, r in pairs[1::2]]))
