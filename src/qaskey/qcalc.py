"""q-calculus primitives: Pochhammer products and difference quotients.

Everything here is exact over the rationals.  All q-hypergeometric
series used by the family constructors terminate (the q^-n upper
parameter kills terms past k = n), so only finite products and sums
appear.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .laurent import SymLaurentPoly, XPoly, Z_MINUS_ZINV

Rat = Union[int, Fraction]


def q_pochhammer(a: Rat, q: Rat, n: int) -> Fraction:
    """(a; q)_n = prod_{j=0}^{n-1} (1 - a q^j), with (a; q)_0 = 1."""
    if n < 0:
        raise ValueError("q_pochhammer needs n >= 0")
    a, q = Fraction(a), Fraction(q)
    acc = Fraction(1)
    aq = a
    for _ in range(n):
        acc *= 1 - aq
        aq *= q
    return acc


def q_pochhammer_multi(bases: Iterable[Rat], q: Rat, n: int) -> Fraction:
    """(a1, a2, ...; q)_n, the product of the individual symbols."""
    acc = Fraction(1)
    for a in bases:
        acc *= q_pochhammer(a, q, n)
    return acc


def q_bracket(n: int, q: Rat) -> Fraction:
    """(1 - q^n) / (1 - q)."""
    q = Fraction(q)
    if q == 1:
        raise ValueError("q must differ from 1")
    return (1 - q ** n) / (1 - q)


def q_derivative(f: XPoly, q: Rat) -> XPoly:
    """(D_q f)(x) = (f(x) - f(qx)) / ((1-q) x).

    On monomials: D_q x^n = (1-q^n)/(1-q) x^(n-1); extended linearly.
    """
    q = Fraction(q)
    if q == 1:
        raise ValueError("q must differ from 1")
    return XPoly([f.coeffs[k] * q_bracket(k, q) for k in range(1, len(f.coeffs))])


def central_q_derivative(f: XPoly, q: Rat) -> XPoly:
    """(d_q f)(x) = (f(qx) - f(x/q)) / ((q - 1/q) x)."""
    q = Fraction(q)
    if q in (0, 1, -1):
        raise ValueError("q must lie outside {0, 1, -1}")
    denom = q - 1 / q
    return XPoly([f.coeffs[k] * (q ** k - q ** (-k)) / denom
                  for k in range(1, len(f.coeffs))])


def divided_q_difference(g: SymLaurentPoly, q_half: Rat) -> SymLaurentPoly:
    """2 (g[sz] - g[z/s]) / ((s - 1/s)(z - 1/z)) with s the square root of q.

    Parametrized directly by s = q^(1/2) so the arithmetic stays
    rational.  Lowers the symmetric degree by exactly one; contracts to
    d/dx as q -> 1.
    """
    s = Fraction(q_half)
    if s in (0, 1, -1):
        raise ValueError("q_half must lie outside {0, 1, -1}")
    if g.is_zero:
        return SymLaurentPoly()
    gl = g.to_laurent()
    num = (gl.dilate(s) - gl.dilate(1 / s)).scale(Fraction(2) / (s - 1 / s))
    # symmetric input guarantees divisibility by z - 1/z
    return num.divide_exact(Z_MINUS_ZINV).to_sym()
