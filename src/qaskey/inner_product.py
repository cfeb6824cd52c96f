"""Exact inner products by orthogonal expansion.

The pairing <f, g> = sum_n f_n g_n h_n, where f_n, g_n are the
coefficients of f and g in the family basis and h_0 = 1, reproduces the
family's orthogonality pairing exactly on polynomials, so symmetry and
skew-symmetry of operators can be certified without any integration.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .families import FamilyData
from .laurent import XPoly
from .operators import PolyOperator


def inner(f, g, fd: FamilyData) -> Fraction:
    cf, cg = fd.expand(f), fd.expand(g)
    return sum((a * b * h for a, b, h in zip(cf, cg, fd.h)), Fraction(0))


def _pairing_table(op: PolyOperator, fd: FamilyData, max_deg: int):
    """inner(op e_i, e_j) for monomials e_i, e_j up to max_deg.

    Each expansion is read as the integer numerators over one denominator
    of the vector it forms (an :class:`XPoly`, whose trailing zeros add
    nothing to a dot product), with the norms h folded into the op e_i
    side, so every entry is one integer dot product and one Fraction.
    """
    h = XPoly(fd.h)
    cols = []
    for i in range(max_deg + 1):
        c = XPoly(fd.expand(op(op.basis(i))))
        cols.append(([a * w for a, w in zip(c.nums, h.nums)], c.den * h.den))
    basis = []
    for j in range(max_deg + 1):
        b = XPoly(fd.expand(op.basis(j)))
        basis.append((b.nums, b.den))
    table = {}
    for i, (a, da) in enumerate(cols):
        for j, (b, db) in enumerate(basis):
            table[i, j] = Fraction(sum(map(mul, a, b)), da * db)
    return table


def symmetry_residual(op: PolyOperator, fd: FamilyData, max_deg: int) -> Fraction:
    """max |<op e_i, e_j> - <e_i, op e_j>| over monomial pairs."""
    t = _pairing_table(op, fd, max_deg)
    return max(abs(t[i, j] - t[j, i])
               for i in range(max_deg + 1) for j in range(max_deg + 1))


def skew_symmetry_residual(op: PolyOperator, fd: FamilyData, max_deg: int) -> Fraction:
    """max |<op e_i, e_j> + <e_i, op e_j>| over monomial pairs."""
    t = _pairing_table(op, fd, max_deg)
    return max(abs(t[i, j] + t[j, i])
               for i in range(max_deg + 1) for j in range(max_deg + 1))
