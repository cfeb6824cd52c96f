"""The spectral and operator-level checks.

These checks read a point's operators (its L and D, X, their commutators
and their matrix columns) or its basis change, rather than one display's
three-term relation: the eigenvalue equation, gamma_n = lam_(n+1) - lam_n,
[D, X] = L, D rebuilt from L, the Jacobi string relation, the
(skew-)symmetry of L, D and X, orthogonality of the expansions and the
independent rebuilds of ``dual-path``.  Every checker reports through the
helpers of :mod:`qaskey.relations`, and its ``perturb`` slot is the same
negative-control hook.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from . import operators as ops
from .families import (AW, BIGQ, CQJ49, CQU, JACOBI, FamilyData, FamilySpec,
                       recurrence_from_expansion, _polys_from_recurrence, cqjacobi_polynomials)
from .inner_product import skew_symmetry_residual, symmetry_residual
from .laurent import XPoly
from .relations import VerificationReport, _close, _degrees, _entry, _p1, _relation


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
