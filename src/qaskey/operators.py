"""Operators on graded polynomial spaces: X, the skew operators L, the
symmetric second-order operators D and the left sides of the
q-ultraspherical displays, plus the generic commutator and the
reconstruction of D from L.

A :class:`PolyOperator` wraps an exact action together with its matrix
columns in the graded monomial basis {1, x, x^2, ...} (for symmetric
Laurent spaces the basis element x^j means ((z + 1/z)/2)^j).  Columns
and images are computed lazily and cached on the operator; what an
operator computes never changes after construction, so it is freely
shareable.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Union

from .families import (FamilySpec, AW, JACOBI, CQJ49, CQU, BIGQ,
                       cqjacobi_aw_spec, cqultra_aw_spec)
from .laurent import SPACES, LaurentPoly, SymLaurentPoly, XPoly, Z_MINUS_ZINV, combine

Poly = Union[SymLaurentPoly, XPoly]


class PolyOperator:
    """A linear operator given by an exact action on one polynomial space.

    Each operator memoizes what it computes: ``op(f)`` keeps the image of
    every input f (polynomials are immutable and hashable), and
    ``column(j)`` keeps the image of x^j in x coordinates, as an
    :class:`~qaskey.laurent.XPoly` (integer numerators over one
    denominator; read entries with ``coeff(k)``).  Both caches
    live exactly as long as the operator.  A family's own L and D belong
    to its :class:`~qaskey.families.FamilyData`, so the checks at one
    parameter point share their images, and both are dropped with the
    point; operators built inside a check are dropped with the check.
    """

    def __init__(self, action: Callable[[Poly], Poly], space: str,
                 degree_shift: int, name: str = ""):
        self.action = action
        self.space = space            # "sym" or "x"
        self.degree_shift = degree_shift
        self.name = name
        self._columns: dict[int, XPoly] = {}
        self._images: dict = {}

    def __call__(self, f: Poly) -> Poly:
        out = self._images.get(f)
        if out is None:
            out = self._images[f] = self.action(f)
        return out

    def basis(self, j: int) -> Poly:
        """x^j in the operator's space."""
        return SPACES[self.space].x_power(j)

    def column(self, j: int) -> XPoly:
        """The image of x^j in x coordinates."""
        col = self._columns.get(j)
        if col is None:
            col = self._columns[j] = self(self.basis(j)).to_x()
        return col

    def __repr__(self):
        return f"PolyOperator({self.name or 'anonymous'}, space={self.space})"


def op_x(space: str) -> PolyOperator:
    """Multiplication by x (by (z + 1/z)/2 on the symmetric side)."""
    return PolyOperator(lambda f: f.mul_x(), space, 1, "X")


def compose(outer: PolyOperator, inner: PolyOperator, name: str = "") -> PolyOperator:
    if outer.space != inner.space:
        raise ValueError("operator spaces differ")
    return PolyOperator(lambda f: outer(inner(f)), outer.space,
                        outer.degree_shift + inner.degree_shift,
                        name or f"{outer.name}∘{inner.name}")


def commutator(D: PolyOperator, X: PolyOperator) -> PolyOperator:
    """DX - XD."""
    if D.space != X.space:
        raise ValueError("operator spaces differ")
    return PolyOperator(lambda f: D(X(f)) - X(D(f)), D.space,
                        D.degree_shift + X.degree_shift,
                        f"[{D.name},{X.name}]")


# ----------------------------------------------------------------------
# divided-shift skeleton shared by every symmetric-Laurent L
# ----------------------------------------------------------------------

def divided_shift_op(v: LaurentPoly, step: Fraction, name: str) -> PolyOperator:
    """f[z] -> (v(z) f[step*z] - v(1/z) f[z/step]) / (z - 1/z).

    Symmetry of the input makes the numerator divisible by z - 1/z; a
    remainder would mean broken algebra upstream, reported as
    NonzeroRemainder.
    """
    v_inv = v.invert_z()
    inv_step = 1 / Fraction(step)

    def act(f: SymLaurentPoly) -> SymLaurentPoly:
        fl = f.to_laurent()
        num = v * fl.dilate(step) - v_inv * fl.dilate(inv_step)
        return num.divide_exact(Z_MINUS_ZINV).to_sym()

    return PolyOperator(act, "sym", 1, name)


def shift_op(u: LaurentPoly, step: Fraction, name: str, degree_shift: int) -> PolyOperator:
    """f[z] -> u(z) f[step*z] + u(1/z) f[z/step], symmetric for symmetric f."""
    u_inv = u.invert_z()
    inv_step = 1 / Fraction(step)

    def act(f: SymLaurentPoly) -> SymLaurentPoly:
        fl = f.to_laurent()
        return (u * fl.dilate(step) + u_inv * fl.dilate(inv_step)).to_sym()

    return PolyOperator(act, "sym", degree_shift, name)


def _linear_factors(zeros_scaled):
    """Product of (1 - r z) over r."""
    acc = LaurentPoly(0, (Fraction(1),))
    for r in zeros_scaled:
        acc = acc * LaurentPoly(0, (Fraction(1), -Fraction(r)))
    return acc


# ----------------------------------------------------------------------
# Askey-Wilson
# ----------------------------------------------------------------------

def aw_L(spec: FamilySpec) -> PolyOperator:
    """((1-az)(1-bz)(1-cz)(1-dz) z^-2 f[qz] - (inverted) z^2 f[z/q]) / (z-1/z)."""
    a, b, c, d, q = (spec.params[k] for k in "abcdq")
    v = _linear_factors((a, b, c, d)).shift(-2)
    return divided_shift_op(v, q, "L_aw")


def aw_D(spec: FamilySpec) -> PolyOperator:
    """The second-order operator with the family as eigenfunctions.

    (1-1/q)/2 * (Df)[z] = v(z) f[qz] - (v(z)+v(1/z)) f[z] + v(1/z) f[z/q],
    v(z) = (1-az)(1-bz)(1-cz)(1-dz) / ((1-z^2)(1-qz^2)); implemented by
    clearing the denominator and dividing exactly afterwards.
    """
    a, b, c, d, q = (spec.params[k] for k in "abcdq")
    n_lin = _linear_factors((a, b, c, d))
    one_minus_z2 = LaurentPoly(0, (Fraction(1), Fraction(0), Fraction(-1)))
    one_minus_qz2 = LaurentPoly(0, (Fraction(1), Fraction(0), -q))
    wv = n_lin * one_minus_z2.invert_z() * one_minus_qz2.invert_z()
    wv_inv = wv.invert_z()
    mid = wv + wv_inv
    clear = one_minus_z2 * one_minus_qz2 * one_minus_z2.invert_z() * one_minus_qz2.invert_z()
    scale = Fraction(2) / (1 - 1 / q)
    inv_q = 1 / q

    def act(f: SymLaurentPoly) -> SymLaurentPoly:
        fl = f.to_laurent()
        num = wv * fl.dilate(q) - mid * fl + wv_inv * fl.dilate(inv_q)
        return num.divide_exact(clear).to_sym().scale(scale)

    return PolyOperator(act, "sym", 0, "D_aw")


# ----------------------------------------------------------------------
# Jacobi
# ----------------------------------------------------------------------

def jacobi_L(spec: FamilySpec) -> PolyOperator:
    """(1-x^2) f' - ((alpha-beta) + (alpha+beta+2) x)/2 * f."""
    al, be = spec.params["alpha"], spec.params["beta"]
    one_minus_x2 = XPoly([1, 0, -1])
    lin = XPoly([(al - be) / 2, (al + be + 2) / 2])

    def act(f: XPoly) -> XPoly:
        return one_minus_x2 * f.derivative() - lin * f

    return PolyOperator(act, "x", 1, "L_jacobi")


def jacobi_D(spec: FamilySpec) -> PolyOperator:
    """(1-x^2)/2 f'' + ((beta-alpha) - (alpha+beta+2) x)/2 * f'."""
    al, be = spec.params["alpha"], spec.params["beta"]
    half_one_minus_x2 = XPoly([Fraction(1, 2), 0, Fraction(-1, 2)])
    lin = XPoly([(be - al) / 2, -(al + be + 2) / 2])

    def act(f: XPoly) -> XPoly:
        return half_one_minus_x2 * f.derivative().derivative() + lin * f.derivative()

    return PolyOperator(act, "x", 0, "D_jacobi")


# ----------------------------------------------------------------------
# continuous q-ultraspherical
# ----------------------------------------------------------------------

def cqultra_nonskew_op(spec: FamilySpec) -> PolyOperator:
    """z^-1 (1 - t z^2) f[q^(1/2) z] + z (1 - t z^-2) f[z / q^(1/2)].

    The difference of the raising and lowering relations; degree-raising
    but not skew symmetric.
    """
    t = spec.params["t"]
    return shift_op(LaurentPoly(-1, (1, 0, -t)), spec.qpow(Fraction(1, 2)), "T_cqultra", 1)


def cqultra_web(spec: FamilySpec) -> dict:
    """The left sides of the q-ultraspherical displays, step q^(1/2), by
    key: eq51, eq52 and eq55 divide by z - 1/z, eq53 (the operator of
    :func:`cqultra_nonskew_op`) and qdiff2 do not."""
    qh = spec.qpow(Fraction(1, 2))
    t = spec.params["t"]
    one_minus_tz2 = LaurentPoly(0, (1, 0, -t))
    return {
        "eq51": divided_shift_op(LaurentPoly(-2, (1, 0, -t)), qh, "eq51"),        # z^-2 - t
        "eq52": divided_shift_op(one_minus_tz2, qh, "eq52"),
        "eq53": cqultra_nonskew_op(spec),
        "eq55": divided_shift_op(one_minus_tz2 * LaurentPoly(-2, (-1, 0, -1)),    # -(1 + z^-2)
                                 qh, "eq55"),
        "qdiff2": shift_op(one_minus_tz2 * LaurentPoly(-2, (-1, 0, 1)), qh, "qdiff2", 2),
    }


# ----------------------------------------------------------------------
# big q-Jacobi
# ----------------------------------------------------------------------

def bigq_L(spec: FamilySpec) -> PolyOperator:
    """((1-x)(1+b/c x) f(qx) - (1 - x/(aq))(1 + x/(cq)) f(x/q)) / x."""
    a, b, c, q = (spec.params[k] for k in "abcq")
    G = XPoly([1, b / c - 1, -b / c])
    M = XPoly([1, 1 / (c * q) - 1 / (a * q), -1 / (a * c * q * q)])
    inv_q = 1 / q

    def act(f: XPoly) -> XPoly:
        return (G * f.compose_scale(q) - M * f.compose_scale(inv_q)).divide_x_exact()

    return PolyOperator(act, "x", 1, "L_bigq")


# ----------------------------------------------------------------------
# D from L (reconstruction) and family dispatch
# ----------------------------------------------------------------------

def d_from_l(L: PolyOperator) -> PolyOperator:
    """The symmetric operator with [D, X] = L, D(1) = 0.

    On monomials D(x^n) = sum_{k<n} X^k L(x^{n-k-1}), computed through
    the recursion D(x^n) = L(x^{n-1}) + X D(x^{n-1}) and extended
    linearly via x-coordinates: each image is one integer combination of
    the monomial images over their common denominator.
    """
    X = op_x(L.space)
    cls = SPACES[L.space]
    # D(x^0), D(x^1), ... and the lcm of the denominators of D(x^0) ..
    # D(x^k) at index k: lists extended in place, so that no closure refers
    # to itself and the operator is freed without the cyclic collector
    monos: list[Poly] = [cls()]
    dens = [1]

    def act(f: Poly) -> Poly:
        fx = f.to_x()
        while len(monos) < len(fx.nums):
            monos.append(L(L.basis(len(monos) - 1)) + X(monos[-1]))
            dens.append(lcm(dens[-1], monos[-1].den))
        den = dens[len(fx.nums) - 1]
        return combine(cls, [v * (den // dj.den) for v, dj in zip(fx.nums, monos)],
                       [dj.nums for dj in monos], fx.den * den)

    return PolyOperator(act, L.space, 0, f"D_from({L.name})")


#: each family's (L, explicit D), with None where D is rebuilt from L;
#: continuous q-Jacobi and continuous q-ultraspherical take the Askey-Wilson
#: pair at the point they restrict
_OPERATORS = {AW: (aw_L, aw_D), JACOBI: (jacobi_L, jacobi_D),
              CQJ49: (lambda spec: aw_L(cqjacobi_aw_spec(spec)),
                      lambda spec: aw_D(cqjacobi_aw_spec(spec))),
              CQU: (lambda spec: aw_L(cqultra_aw_spec(spec)),
                    lambda spec: aw_D(cqultra_aw_spec(spec))),
              BIGQ: (bigq_L, None)}


def family_L(spec: FamilySpec) -> PolyOperator:
    return _OPERATORS[spec.family][0](spec)


def family_D(spec: FamilySpec, L: PolyOperator) -> PolyOperator:
    """The explicit symmetric operator, or its reconstruction from the
    point's L."""
    explicit = _OPERATORS[spec.family][1]
    return d_from_l(L) if explicit is None else explicit(spec)
