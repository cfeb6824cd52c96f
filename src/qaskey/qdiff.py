"""The second-order q-difference equation of a family, derived from its data.

The equation A p_n(shift+) + B p_n + C p_n(shift-) = lam_n E p_n is
derived, not stated: :func:`derive_second_order_qdiff` solves for A, C
and E (B = -(A + C)) as the exact nullspace of a linear ansatz on the
point's polynomials, then recovers each lam_n by exact division.  It is
one solver for both polynomial spaces, which differ only in one table,
:data:`_QDIFF_SPACES`.

The solver reads only the point's polynomials and needs only
:mod:`qaskey.laurent`.  The checks that use its result,
:func:`qaskey.relations.check_qdiff_recovery` and
:func:`qaskey.relations.reduce_bigq_chain`, read it through
:attr:`qaskey.families.FamilyData.qdiff`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import TYPE_CHECKING, Callable, NamedTuple

from .laurent import LaurentPoly, NonzeroRemainder, SymLaurentPoly, XPoly

if TYPE_CHECKING:
    from .families import FamilyData


class NoSolution(RuntimeError):
    """The difference-equation ansatz admits no nontrivial solution."""


class VerificationFailure(RuntimeError):
    """A derived candidate equation failed at a higher degree."""


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
