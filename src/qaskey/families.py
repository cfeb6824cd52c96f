"""The five polynomial families and their exact coefficient data.

A :class:`FamilyData` holds, for one parameter point
(:class:`~qaskey.specs.FamilySpec`) and every degree up to a cap, the
polynomial p_n together with

  k_n     leading coefficient in x
  A_n,B_n,C_n   three-term recurrence  x p_n = A_n p_{n+1} + B_n p_n + C_n p_{n-1}
  h_n     squared norm, normalized h_0 = 1, via C_n = A_{n-1} h_n / h_{n-1}
  lam_n   eigenvalue of the family's second-order operator, lam_0 = 0
  gamma_n slope of the skew operator, gamma_n = lam_{n+1} - lam_n

The polynomials come from the hypergeometric sums of
:mod:`qaskey.hypergeometric`, the points and their admissibility checks
from :mod:`qaskey.specs`; this module binds their public names too.

Continuous q-Jacobi and continuous q-ultraspherical are the Askey-Wilson
family at a restricted point (:func:`cqjacobi_aw_spec`,
:func:`cqultra_aw_spec`) in another normalization p_n = sigma_n P_n
(:func:`cqjacobi_scale`, :func:`cqultra_scale`): one builder,
:func:`_build_aw`, makes all three symmetric families, and their
operators are the Askey-Wilson L and D at the restricted point.

Each family is one row of :data:`FAMILIES`: parameter names, constructor,
sampler draw, admissibility check and builder.

Each FamilyData also owns the point's operators L and D, its derived
second-order q-difference equation, big q-Jacobi's chain, the expansions
of x^k in its basis and the Gram matrix <x^i, x^j> of its monomials,
each built on first use (the last two only as far as a check reads) and
dropped with the FamilyData, so every check at one point shares them.

The expansions grow through the three-term recurrence read off the top
coefficients of x p_n, the whole relation checked exactly, never
guessed; big q-Jacobi, whose literature data here stops at the
hypergeometric sum, takes its A_n, B_n and C_n from it too.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from typing import Callable, NamedTuple, Sequence

# the public names of both modules are bound here as well, some only for
# the modules and callers that import them from here
from .hypergeometric import (_aw_coefficients, _aw_phi43s, _aw_tables, aw_polynomials,
                             bigq_polynomials, cqjacobi_polynomials, cqjacobi_scale,
                             cqultra_scale, jacobi_coefficients, jacobi_polynomials)
from .laurent import SPACES, XPoly, combine, sym_to_x
from .specs import (AW, BIGQ, CLI_FAMILIES, CQJ, CQJ49, CQU, JACOBI, FamilySpec,
                    InadmissibleParameters, Rat, _check_bigq, _check_cqjacobi, _validate_aw,
                    aw_spec, bigq_spec, cqjacobi_aw_spec, cqjacobi_spec, cqultra_aw_spec,
                    cqultra_spec, jacobi_spec)


class ExpansionError(ArithmeticError):
    """A basis expansion left a residual; the family data is corrupt."""


# ----------------------------------------------------------------------
# admissibility
# ----------------------------------------------------------------------

def validate_spec(spec: FamilySpec, n_max: int = 16) -> None:
    """Reject parameter points that break any denominator up to degree n_max."""
    q = spec.params.get("q")
    if q is not None and not (0 < q < 1):
        raise InadmissibleParameters("q must lie in (0,1)")
    FAMILIES[spec.family].check(spec, n_max)


# ----------------------------------------------------------------------
# family data
# ----------------------------------------------------------------------

class _FamilyFields(NamedTuple):
    spec: FamilySpec
    space: str                       # "sym" or "x"
    n_max: int
    polys: tuple                     # native polynomials, 0 .. n_max+1
    polys_x: tuple                   # the same in x coordinates
    A: tuple                         # 0 .. n_max
    B: tuple
    C: tuple                         # C_0 = 0 by convention
    h: tuple                         # h_0 = 1
    lam: tuple                       # 0 .. n_max+1
    gamma: tuple                     # 0 .. n_max


class FamilyData(_FamilyFields):
    """Exact per-degree data for one family at one parameter point.

    ``polys`` runs to degree n_max+1 and ``lam`` to index n_max+1 so
    that every check at n <= n_max has its neighbours available.  The
    fields are an immutable tuple; this subclass adds the instance dict
    that holds the cached properties below.
    """

    @property
    def family(self) -> str:
        return self.spec.family

    @property
    def k(self) -> tuple:
        """The leading x-coefficients k_0 .. k_(n_max+1)."""
        return tuple(p.coeff(p.degree) for p in self.polys_x)

    # The point's operators and derived equation: built on first use, kept
    # in the instance dict, and so dropped with the FamilyData.  The
    # modules that make them are imported here, as they import this one.

    @cached_property
    def L(self):
        """The family's skew operator L (:func:`operators.family_L`)."""
        from . import operators
        return operators.family_L(self.spec)

    @cached_property
    def D(self):
        """The family's second-order operator D; rebuilt from :attr:`L`
        when the family has no explicit one (:func:`operators.family_D`)."""
        from . import operators
        return operators.family_D(self.spec, self.L)

    @cached_property
    def qdiff(self):
        """The second-order q-difference equation derived from this data
        (:func:`qdiff.derive_second_order_qdiff`).  It is called by its
        ``relations`` name, which the benchmark tracer and the tests patch;
        ``qdiff`` is loaded with ``relations`` when ``qaskey`` is, not here."""
        from . import relations
        return relations.derive_second_order_qdiff(self)

    @cached_property
    def chain(self) -> tuple:
        """Big q-Jacobi's eq42/eq41 chain at this point, called by its
        ``relations`` name as :attr:`qdiff` is (:func:`relations.reduce_bigq_chain`)."""
        from . import relations
        return relations.reduce_bigq_chain(self)

    # The basis change to the family and the pairing of monomials: grown on
    # first use only as far as a check reads, and dropped with the point.

    @cached_property
    def recurrence_rows(self) -> dict:
        """n -> (A_n, B_n, C_n) for the n read off the polynomials so far
        (:func:`recurrence_from_expansion`)."""
        return {}

    @cached_property
    def x_rows(self) -> list:
        """The rows of :meth:`x_row` grown so far, row k at index k."""
        return [XPoly([1 / self.polys_x[0].coeff(0)])]

    def x_row(self, k: int) -> XPoly:
        """x^k in the family basis: coefficient j is that of p_j.

        Row 0 is 1/p_0, and row m+1 is x times row m through
        x p_j = A_j p_(j+1) + B_j p_j + C_j p_(j-1) read off the polynomials,
        never the A, B, C fields, whose C_n = A_(n-1) h_n / h_(n-1) would
        make a symmetry check of x hold by construction.  This is the one
        place that raises past degree n_max + 1, where the polynomials end.
        """
        if k > self.n_max + 1:
            raise ExpansionError(f"degree {k} exceeds the available family data")
        rows = self.x_rows
        while len(rows) <= k:
            last = rows[-1]
            up = [Fraction(0)] * (len(rows) + 1)
            for j, v in enumerate(last.nums):
                A, B, C = recurrence_from_expansion(self, j)
                up[j + 1] += A * v
                up[j] += B * v
                if j:
                    up[j - 1] += C * v
            rows.append(XPoly(up).scale(Fraction(1, last.den)))
        return rows[k]

    def _x_table(self, k: int) -> tuple:
        """(rows, den) with x^m = sum_j rows[m][j] p_j / den for m <= k."""
        self.x_row(k)
        rows = self.x_rows[:k + 1]
        den = lcm(*(r.den for r in rows))
        return [[v * (den // r.den) for v in r.nums] for r in rows], den

    def gram(self, k: int) -> tuple:
        """(rows, den) with <x^i, x^j> = rows[i][j] / den for i, j <= k, or
        further where a pairing at this point has asked for more.

        <x^i, x^j> = sum_n E[i][n] E[j][n] h_n, with E the rows of
        :meth:`x_row` and n over the degrees that carry a norm (n <= n_max),
        as one integer dot product per entry.
        """
        built = vars(self).get("_gram")
        if built is None or len(built[0]) <= k:
            rows, den = self._x_table(k)
            h = XPoly(self.h[:k + 1])
            weighted = [[v * w for v, w in zip(row, h.nums)] for row in rows]
            gram = [[sum(map(mul, wi, row)) for row in rows] for wi in weighted]
            gden = den * den * h.den
            g = gcd(gden, *(v for row in gram for v in row))
            built = vars(self)["_gram"] = [[v // g for v in row] for row in gram], gden // g
        return built

    def expand(self, f) -> list:
        """Coefficients of f in the family basis: the rows of :meth:`x_row`
        combined with f's x-coefficients as weights."""
        fx = f.to_x()
        if fx.is_zero:
            return []
        rows, den = self._x_table(fx.degree)
        return list(combine(XPoly, fx.nums, rows, fx.den * den).coeffs)


def _polys_from_recurrence(A, B, C, n_hi, space):
    """Seed p_0 = 1 and iterate p_{n+1} = ((x - B_n) p_n - C_n p_{n-1}) / A_n."""
    polys = [SPACES[space].x_power(0)]
    for n in range(n_hi):
        nxt = polys[n].mul_x() - polys[n].scale(B[n])
        if n > 0:
            nxt = nxt - polys[n - 1].scale(C[n])
        polys.append(nxt.scale(1 / A[n]))
    return polys


def _norms_recursive(A, C, n_hi) -> tuple:
    h = [Fraction(1)]
    for n in range(1, n_hi + 1):
        h.append(h[n - 1] * C[n] / A[n - 1])
    return tuple(h)


# -- builders -------------------------------------------------------------

def build_family(spec: FamilySpec, n_max: int) -> FamilyData:
    validate_spec(spec, n_max)
    return FAMILIES[spec.family].build(spec, n_max)


def _build_aw(spec, n_max, aw=None, scale=None):
    """The family of ``spec`` as the Askey-Wilson family at the point ``aw``
    (``spec`` itself by default) with p_n = scale[n] P_n (scale[0] = 1).
    Then A_n = A_n^AW scale[n] / scale[n+1] and h_n = h_n^AW scale[n]^2;
    B_n, lam_n and gamma_n do not depend on the normalization."""
    hi = n_max + 1
    a, b, c, d, q = ((aw or spec).params[k] for k in "abcdq")
    qp, w, g = _aw_tables(a, b, c, d, q, hi)
    polys = tuple(_aw_phi43s(hi, a, qp, w, g, scale))
    polys_x = tuple(sym_to_x(p) for p in polys)
    A, B, hs, lam, gamma = _aw_coefficients(n_max, a, b, c, d, qp, w, g)
    if scale:
        A = [v * scale[n] / scale[n + 1] for n, v in enumerate(A)]
        hs = [v * scale[n] ** 2 for n, v in enumerate(hs)]
    C = (Fraction(0),) + tuple(A[n - 1] * hs[n] / hs[n - 1] for n in range(1, n_max + 1))
    return FamilyData(spec, "sym", n_max, polys, polys_x,
                      tuple(A), tuple(B), C, tuple(hs), tuple(lam), tuple(gamma))


def _build_jacobi(spec, n_max):
    hi = n_max + 1
    A, B, C, lam, gamma = zip(*(jacobi_coefficients(n, spec) for n in range(hi + 1)))
    polys = tuple(jacobi_polynomials(hi, spec))
    return FamilyData(spec, "x", n_max, polys, polys, A[:hi], B[:hi], C[:hi],
                      _norms_recursive(A, C, n_max), lam, gamma[:hi])


def _build_bigq(spec, n_max):
    from . import operators   # deferred: operators imports this module

    hi = n_max + 1
    polys = tuple(bigq_polynomials(hi, spec))
    rows = [_recurrence_row(polys, n) for n in range(hi)]
    A, B, C = zip(*rows)
    # slopes read off the degree-raising operator; eigenvalues accumulate
    L = operators.bigq_L(spec)
    gamma = tuple(L(L.basis(n)).coeff(n + 1) for n in range(hi))
    lam = tuple(accumulate(gamma, initial=Fraction(0)))
    fd = FamilyData(spec, "x", n_max, polys, polys, A, B, C,
                    _norms_recursive(A, C, n_max), lam, gamma)
    # the rows were read off this point's own polynomials, so x_row reads
    # them from here rather than again
    fd.recurrence_rows.update(enumerate(rows))
    return fd


def _recurrence_row(polys_x: Sequence[XPoly], n: int) -> tuple:
    """(A_n, B_n, C_n) with x p_n = A_n p_(n+1) + B_n p_n + C_n p_(n-1).

    The top three coefficients of x p_n fix them in turn: A_n = k_n / k_(n+1),
    then B_n and C_n once A_n p_(n+1) and B_n p_n are peeled off.  The
    whole of x p_n minus the three terms must then vanish, or x p_n has a
    component outside the three neighbours.
    """
    p, up = polys_x[n], polys_x[n + 1]
    A = p.coeff(n) / up.coeff(n + 1)
    B = (p.coeff(n - 1) - A * up.coeff(n)) / p.coeff(n)
    rest = p.shift_x(1) - up.scale(A) - p.scale(B)
    C = Fraction(0)
    if n >= 1:
        down = polys_x[n - 1]
        C = (p.coeff(n - 2) - A * up.coeff(n - 1) - B * p.coeff(n - 1)) / down.coeff(n - 1)
        rest = rest - down.scale(C)
    if rest:
        raise ExpansionError("x p_n expands outside its three neighbours")
    return A, B, C


def recurrence_from_expansion(fd: FamilyData, n: int):
    """(A_n, B_n, C_n), the expansion of x * p_n in the family basis, read
    off its top three coefficients and checked (:func:`_recurrence_row`),
    once per point (:attr:`FamilyData.recurrence_rows`)."""
    rows = fd.recurrence_rows
    if n not in rows:
        rows[n] = _recurrence_row(fd.polys_x, n)
    return rows[n]


# ----------------------------------------------------------------------
# seeded parameter sampling
# ----------------------------------------------------------------------

_HALF_GRID = tuple(Fraction(k, 2) for k in range(0, 6))


def _rat01(rng: random.Random, den_max: int = 8) -> Fraction:
    den = rng.randrange(2, den_max + 1)
    return Fraction(rng.randrange(1, den), den)


def _rat_signed(rng: random.Random, den_max: int = 8) -> Fraction:
    v = _rat01(rng, den_max)
    return -v if rng.random() < 0.5 else v


# ----------------------------------------------------------------------
# the family table
# ----------------------------------------------------------------------

class Family(NamedTuple):
    """One family: its ``--params`` names, the constructor that takes them in
    that order, the sampler's draw (the order of its rng calls fixes the
    sampled points), the check after the shared 0 < q < 1, and the builder."""

    params: tuple
    make: Callable                   # *params -> FamilySpec
    draw: Callable                   # rng -> FamilySpec
    check: Callable                  # (spec, n_max); raises InadmissibleParameters
    build: Callable                  # (spec, n_max) -> FamilyData


#: every family by name: the command-line names, and continuous q-Jacobi's
#: family name CQJ49 under the command-line row
FAMILIES = {
    AW: Family(
        ("a", "b", "c", "d", "q"), lambda a, b, c, d, q: aw_spec(a, b, c, d, q=q),
        lambda rng: aw_spec(_rat_signed(rng), _rat_signed(rng), _rat_signed(rng),
                            _rat_signed(rng), q=_rat01(rng)),
        lambda spec, n_max: _validate_aw(spec.params, n_max), _build_aw),
    # jacobi_spec, the only way to a Jacobi point, rejects alpha, beta <= -1
    JACOBI: Family(
        ("alpha", "beta"), jacobi_spec,
        lambda rng: jacobi_spec(rng.randrange(0, 3) - 1 + _rat01(rng, 6),
                                rng.randrange(0, 3) - 1 + _rat01(rng, 6)),
        lambda spec, n_max: None, _build_jacobi),
    CQJ: Family(
        ("alpha", "beta", "s"), cqjacobi_spec,
        lambda rng: cqjacobi_spec(rng.choice(_HALF_GRID), rng.choice(_HALF_GRID),
                                  _rat01(rng, 5)),
        _check_cqjacobi,
        lambda spec, n_max: _build_aw(spec, n_max, cqjacobi_aw_spec(spec),
                                      cqjacobi_scale(n_max + 1, spec))),
    # the build reads the denominators of the restricted Askey-Wilson point
    CQU: Family(
        ("u", "s"), cqultra_spec,
        lambda rng: cqultra_spec(_rat_signed(rng, 6), _rat01(rng, 5)),
        lambda spec, n_max: _validate_aw(cqultra_aw_spec(spec).params, n_max),
        lambda spec, n_max: _build_aw(spec, n_max, cqultra_aw_spec(spec),
                                      cqultra_scale(n_max + 1, spec))),
    BIGQ: Family(
        ("a", "b", "c", "q"), bigq_spec,
        lambda rng: bigq_spec(_rat01(rng), _rat01(rng), _rat01(rng), _rat01(rng)),
        _check_bigq, _build_bigq),
}
FAMILIES[CQJ49] = FAMILIES[CQJ]


def sample_specs(family: str, count: int, seed: int, n_max: int = 16):
    """Deterministically draw distinct admissible parameter points."""
    # string seeds hash deterministically across processes (unlike tuples)
    rng = random.Random(f"{seed}:{family}")
    row = FAMILIES[family]
    out = []
    seen = set()
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 500 * count:
            raise RuntimeError("sampler failed to find admissible parameters")
        try:
            spec = row.draw(rng)
            validate_spec(spec, n_max)
        except InadmissibleParameters:
            continue
        key = tuple(sorted(spec.params.items()))
        if key in seen:
            continue
        seen.add(key)
        out.append(spec)
    return out
