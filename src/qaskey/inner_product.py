"""Exact inner products by orthogonal expansion.

The pairing <f, g> = sum_n f_n g_n h_n, where f_n, g_n are the
coefficients of f and g in the family basis and h_0 = 1, reproduces the
family's orthogonality pairing exactly on polynomials, so symmetry and
skew-symmetry of operators can be certified without any integration.

On monomials the pairing is the point's Gram matrix
G[i][j] = <x^i, x^j> (:meth:`~qaskey.families.FamilyData.gram`), built
once per point as integers over one denominator, up to the highest
degree an operator column reaches, so by linearity a pairing table needs
only each operator column's x-coefficients: every skew and symmetry
table at a point shares the one G, and each table is integers over one
denominator, so its residual is one Fraction.  A column past the
family data raises :class:`~qaskey.families.ExpansionError` from G's
build.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .families import FamilyData
from .operators import PolyOperator


def inner(f, g, fd: FamilyData) -> Fraction:
    cf, cg = fd.expand(f), fd.expand(g)
    return sum((a * b * h for a, b, h in zip(cf, cg, fd.h)), Fraction(0))


def _pairing_rows(op: PolyOperator, fd: FamilyData, max_deg: int) -> tuple:
    """(rows, den) with inner(op e_i, e_j) = rows[i][j] / den for monomials
    e_i, e_j up to max_deg.

    With G the point's Gram matrix, <op e_i, e_j> = sum_k (op e_i)_k G[k][j],
    where (op e_i)_k are the x-coefficients of the cached column
    ``op.column(i)``.  ``den`` is the lcm of the columns' denominators
    times the Gram denominator, so every entry is one integer dot product
    and one integer product, and rows[i][j] / den is exactly the rational
    the family-basis triple sum gives.
    """
    cols = [op.column(i) for i in range(max_deg + 1)]
    gram, gden = fd.gram(max(max_deg, *(len(col.nums) - 1 for col in cols)))
    cden = lcm(*(col.den for col in cols))
    rows = [[cden // col.den * sum(map(mul, col.nums, gram[j])) for j in range(max_deg + 1)]
            for col in cols]
    return rows, cden * gden


def _max_pair(op: PolyOperator, fd: FamilyData, max_deg: int, sign: int) -> Fraction:
    """max |<op e_i, e_j> + sign <e_i, op e_j>| over monomial pairs, as
    one Fraction of the largest integer numerator."""
    rows, den = _pairing_rows(op, fd, max_deg)
    return Fraction(max(abs(a + sign * b) for row, col in zip(rows, zip(*rows))
                        for a, b in zip(row, col)), den)


def symmetry_residual(op: PolyOperator, fd: FamilyData, max_deg: int) -> Fraction:
    """max |<op e_i, e_j> - <e_i, op e_j>| over monomial pairs."""
    return _max_pair(op, fd, max_deg, -1)


def skew_symmetry_residual(op: PolyOperator, fd: FamilyData, max_deg: int) -> Fraction:
    """max |<op e_i, e_j> + <e_i, op e_j>| over monomial pairs."""
    return _max_pair(op, fd, max_deg, 1)
