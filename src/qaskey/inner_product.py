"""Exact inner products by orthogonal expansion.

The pairing <f, g> = sum_n f_n g_n h_n, where f_n, g_n are the
coefficients of f and g in the family basis and h_0 = 1, reproduces the
family's orthogonality pairing exactly on polynomials, so symmetry and
skew-symmetry of operators can be certified without any integration.

On monomials the pairing is the point's Gram matrix
G[i][j] = <x^i, x^j> (:attr:`~qaskey.families.FamilyData.gram`), built
once per point as integers over one denominator, so by linearity a
pairing table needs only each operator column's x-coefficients: every
skew and symmetry table at a point shares the one G.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .families import ExpansionError, FamilyData
from .operators import PolyOperator


def inner(f, g, fd: FamilyData) -> Fraction:
    cf, cg = fd.expand(f), fd.expand(g)
    return sum((a * b * h for a, b, h in zip(cf, cg, fd.h)), Fraction(0))


def _pairing_table(op: PolyOperator, fd: FamilyData, max_deg: int):
    """inner(op e_i, e_j) for monomials e_i, e_j up to max_deg.

    With G the point's Gram matrix, <op e_i, e_j> = sum_k (op e_i)_k G[k][j],
    where (op e_i)_k are the x-coefficients of the cached column
    ``op.column(i)``.  Both sides are integer numerators over one
    denominator, so every entry is one integer dot product and one
    Fraction, and it is exactly the rational the family-basis triple sum
    gives.
    """
    gram, gden = fd.gram
    if max_deg >= len(gram):
        raise ExpansionError(f"degree {max_deg} exceeds the available family data")
    table = {}
    for i in range(max_deg + 1):
        col = op.column(i)
        if len(col.nums) > len(gram):
            raise ExpansionError(f"degree {col.degree} exceeds the available family data")
        den = col.den * gden
        for j in range(max_deg + 1):
            table[i, j] = Fraction(sum(map(mul, col.nums, gram[j])), den)
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
