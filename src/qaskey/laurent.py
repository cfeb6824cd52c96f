"""Exact Laurent-polynomial arithmetic over the rationals.

Three immutable polynomial flavours share one integer normal form:

``LaurentPoly``
    f(z) = sum_{k=lo..hi} c_k z^k, finitely many terms, negative
    exponents allowed.

``SymLaurentPoly``
    f[z] = c_0 + sum_{k>=1} c_k (z^k + z^-k), invariant under
    z -> 1/z.  In bijection with ordinary polynomials of the same
    degree in x = (z + 1/z)/2.

``XPoly``
    ordinary polynomial in one variable x, coefficients ascending.

Each polynomial stores its coefficients as ``nums``, a tuple of integer
numerators with no trailing zero (a ``LaurentPoly`` also moves its
leading zeros into ``lo``), over one denominator ``den`` > 0 with
gcd(content, den) = 1.  The zero polynomial is ``()`` over 1, so
structural equality is mathematical equality.  ``coeffs``, the
coefficients as ``fractions.Fraction``, is built on first read.

Every operation (sums, products, exact division, dilations
z -> r z and x -> r x, and the conversions between the x and z
pictures) reads and writes integers, with one gcd per result to
restore the normal form.  This module is the only place that converts
between that form and ``Fraction`` values.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]


class NonzeroRemainder(ArithmeticError):
    """An exact division left a remainder; some identity upstream is broken."""


def _cleared(values: Iterable[Rat]) -> tuple:
    """(numerators, den): the values over their least common denominator."""
    vals = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = 1
    for v in vals:
        den = lcm(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in vals], den


def _convolve(a: Sequence[int], b: Sequence[int]) -> list:
    """Coefficients of the product of two nonempty integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


def _scale_powers(nums: Sequence[int], den: int, r: Rat, lo: int) -> tuple:
    """(numerators, den) of c_i * r^(lo + i) for c_i = nums[i] / den, r = p/s.

    With H = len(nums) - 1 this is nums[i] p^i s^(H-i) * p^lo / (den s^(lo+H)):
    one integer row from running powers, with the factor p^lo / s^(lo+H)
    split into one numerator multiplier (the start of the running power
    of p) and one positive denominator.
    """
    p, s = r.numerator, r.denominator
    h = len(nums) - 1
    hi = lo + h
    pp = 1
    if lo >= 0:
        pp = p ** lo
    else:
        m = p ** -lo
        den *= abs(m)
        if m < 0:
            pp = -1
    if hi >= 0:
        den *= s ** hi
    else:
        pp *= s ** -hi
    out, sp = [], s ** h
    for v in nums:
        out.append(v * pp * sp)
        pp *= p
        sp //= s
    return out, den


def _divide(f: Sequence[int], df: int, g: Sequence[int], dg: int) -> tuple | None:
    """(numerators, den) of q with f = g*q as ordinary polynomials, for
    f = f[i] / df and g = g[i] / dg, or None when g does not divide f.

    g is first written as (content / dg) * gp with gp primitive.  A
    primitive divisor of an integer polynomial leaves an integer quotient
    (Gauss's lemma), so when g divides f every elimination step divides
    exactly by gp's leading coefficient; when it does not, some entry of
    the remainder stays nonzero.
    """
    content = gcd(*g)
    gp = [v // content for v in g]
    dn = len(gp) - 1
    lead = gp[dn]
    if len(f) - 1 < dn:
        return None
    rem = list(f)
    quot = [0] * (len(rem) - dn)
    for top in range(len(rem) - 1, dn - 1, -1):
        c = rem[top]
        if c:
            t = quot[top - dn] = c // lead
            for k, v in enumerate(gp, top - dn):
                rem[k] -= t * v
    if any(rem):
        return None
    # f / g = (F / gp) * dg / (df * content)
    return [v * dg for v in quot], df * content


class _Poly:
    """The normal form and the linear structure shared by the three flavours.

    ``nums`` holds integer numerators with no trailing zero over ``den``,
    reduced so that gcd(content, den) = 1; the zero polynomial is ``()``
    over 1.  ``_lo`` is the exponent of ``nums[0]``; only a
    ``LaurentPoly`` moves leading zeros into it, so it is 0 for the
    other two flavours.
    """

    __slots__ = ("nums", "den", "_lo", "_coeffs")

    #: whether leading zeros move into _lo (LaurentPoly only)
    _trim_low = False

    def __init__(self, coeffs: Iterable[Rat] = ()):
        self._set(*_cleared(coeffs), 0)

    @classmethod
    def _make(cls, nums: Sequence[int], den: int = 1, lo: int = 0):
        """The polynomial with integer numerators nums over den > 0 at
        exponent lo, normalized."""
        out = object.__new__(cls)
        out._set(nums, den, lo)
        return out

    @classmethod
    def _new(cls, nums: tuple, den: int, lo: int = 0):
        """A polynomial from numerators already in normal form."""
        out = object.__new__(cls)
        object.__setattr__(out, "nums", nums)
        object.__setattr__(out, "den", den)
        object.__setattr__(out, "_lo", lo)
        return out

    def _set(self, nums: Sequence[int], den: int, lo: int) -> None:
        end = len(nums)
        while end and not nums[end - 1]:
            end -= 1
        start = 0
        if self._trim_low:
            while start < end and not nums[start]:
                start += 1
        if start == end:
            nums, den, lo = (), 1, 0
        else:
            nums = nums[start:end]
            g = gcd(den, *nums)
            if g > 1:
                nums = tuple(v // g for v in nums)
                den //= g
            else:
                nums = tuple(nums)
            lo += start
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_lo", lo)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, built on first read."""
        try:
            return self._coeffs
        except AttributeError:
            den = self.den
            cs = tuple(Fraction(v, den) for v in self.nums)
            object.__setattr__(self, "_coeffs", cs)
            return cs

    def _at(self, i: int) -> Fraction:
        """Entry i of coeffs, 0 outside the stored range."""
        if 0 <= i < len(self.nums):
            return Fraction(self.nums[i], self.den)
        return Fraction(0)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nums == other.nums and self.den == other.den
                and self._lo == other._lo)

    def __hash__(self):
        return hash((self._lo, self.den, self.nums))

    def __repr__(self) -> str:
        terms = [f"({c}){self._basis(i)}" for i, c in enumerate(self.coeffs) if c]
        return f"{type(self).__name__}({' + '.join(terms) or 0})"

    # -- the linear structure ------------------------------------------

    def _plus(self, other, sign: int):
        if not other.nums:
            return self
        if not self.nums:
            return other if sign > 0 else -other
        a, b = self.nums, other.nums
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        lo = min(self._lo, other._lo)
        at, bt = self._lo - lo, other._lo - lo
        out = [0] * max(at + len(a), bt + len(b))
        for k, v in enumerate(a, at):
            out[k] = v * fa
        if sign < 0:
            fb = -fb
        for k, v in enumerate(b, bt):
            out[k] += v * fb
        return self._make(out, fa * self.den, lo)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self._new(tuple(-v for v in self.nums), self.den, self._lo)

    def scale(self, r: Rat):
        """Multiply by the rational r."""
        if not isinstance(r, (int, Fraction)):
            r = Fraction(r)
        if not r or not self.nums:
            return self._new((), 1)
        p = r.numerator
        return self._make([v * p for v in self.nums], self.den * r.denominator, self._lo)


class LaurentPoly(_Poly):
    """f(z) = sum c_k z^k with coeffs[i] the coefficient of z^(lo+i).

    The first and last stored numerators are nonzero; the zero polynomial
    is ``LaurentPoly()`` with empty coeffs and lo = 0.
    """

    __slots__ = ()
    _trim_low = True

    def __init__(self, lo: int = 0, coeffs: Iterable[Rat] = ()):
        self._set(*_cleared(coeffs), lo)

    # -- basic queries -------------------------------------------------

    @property
    def lo(self) -> int:
        return self._lo

    @property
    def hi(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no top exponent")
        return self._lo + len(self.nums) - 1

    def coeff(self, k: int) -> Fraction:
        return self._at(k - self._lo)

    def _basis(self, i: int) -> str:
        return f"*z^{self._lo + i}"

    # -- ring operations -----------------------------------------------

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero or other.is_zero:
            return LaurentPoly()
        return LaurentPoly._make(_convolve(self.nums, other.nums),
                                 self.den * other.den, self._lo + other._lo)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^k."""
        if self.is_zero:
            return self
        return LaurentPoly._new(self.nums, self.den, self._lo + k)

    def dilate(self, r: Rat) -> "LaurentPoly":
        """Substitute z -> r*z: the coefficient of z^k is scaled by r^k."""
        r = Fraction(r)
        if r == 0:
            raise ZeroDivisionError("dilation factor must be nonzero")
        if self.is_zero:
            return self
        return LaurentPoly._make(*_scale_powers(self.nums, self.den, r, self._lo), self._lo)

    def invert_z(self) -> "LaurentPoly":
        """Substitute z -> 1/z."""
        if self.is_zero:
            return self
        return LaurentPoly._new(self.nums[::-1], self.den, -self.hi)

    def divide_exact(self, g: "LaurentPoly") -> "LaurentPoly":
        """Return h with self == g*h, raising NonzeroRemainder otherwise."""
        if g.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return LaurentPoly()
        # reduce to ordinary polynomial division; the normalized
        # representations both have nonzero constant term after the shift
        quot = _divide(self.nums, self.den, g.nums, g.den)
        if quot is None:
            raise NonzeroRemainder(f"{self!r} not divisible by {g!r}")
        return LaurentPoly._make(*quot, self._lo - g._lo)

    def __call__(self, zv: Rat) -> Fraction:
        zv = Fraction(zv)
        acc = Fraction(0)
        for i, v in enumerate(self.nums, self._lo):
            acc += v * zv ** i
        return acc / self.den

    # -- symmetry ------------------------------------------------------

    def to_sym(self) -> "SymLaurentPoly":
        if self.is_zero:
            return SymLaurentPoly()
        if self != self.invert_z():
            raise ValueError(f"not symmetric under z -> 1/z: {self!r}")
        # the z^0 .. z^hi half has the same entries, so the same content
        return SymLaurentPoly._new(self.nums[-self._lo:], self.den)


class SymLaurentPoly(_Poly):
    """f[z] = coeffs[0] + sum_{k>=1} coeffs[k] (z^k + z^-k).

    Trailing zero coefficients are stripped; the zero polynomial is the
    empty tuple.  Closed under addition and multiplication.
    """

    __slots__ = ()

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return len(self.nums) - 1

    def coeff(self, k: int) -> Fraction:
        return self._at(abs(k))

    def _basis(self, k: int) -> str:
        return f"*(z^{k}+z^-{k})" if k else ""

    def to_laurent(self) -> LaurentPoly:
        if self.is_zero:
            return LaurentPoly()
        nums = self.nums
        return LaurentPoly._new(nums[:0:-1] + nums, self.den, 1 - len(nums))

    def __mul__(self, other: "SymLaurentPoly") -> "SymLaurentPoly":
        """Product in the basis 1, z^k + z^-k.

        With a_k = a_-k, the z^m coefficient (m >= 0) of the product is the
        convolution of the halves plus the terms pairing z^-s in one factor
        with z^(m+s) in the other (s >= 1).  Those are the entries of the
        convolution of the reversed tail a[:0:-1] with the tail b[1:], at lag
        m and -m, so lag 0 counts twice.
        """
        if self.is_zero or other.is_zero:
            return SymLaurentPoly()
        na, nb = self.nums, other.nums
        out = _convolve(na, nb)
        if len(na) > 1 and len(nb) > 1:
            cross = _convolve(na[:0:-1], nb[1:])
            mid = len(na) - 2                  # the index of lag 0
            for lag, v in enumerate(cross, -mid):
                out[abs(lag)] += v
            out[0] += cross[mid]
        return SymLaurentPoly._make(out, self.den * other.den)

    def __call__(self, zv: Rat) -> Fraction:
        return self.to_laurent()(zv)

    @classmethod
    def x_power(cls, j: int) -> "SymLaurentPoly":
        """x^j with x = (z + 1/z)/2 (:func:`x_monomial_sym`)."""
        return x_monomial_sym(j)

    def mul_x(self) -> "SymLaurentPoly":
        """Multiply by x = (z + 1/z)/2."""
        return self * _X_SYM

    def to_x(self) -> "XPoly":
        """The same polynomial in x coordinates (:func:`sym_to_x`)."""
        return sym_to_x(self)


class XPoly(_Poly):
    """Ordinary polynomial in x; coeffs[i] is the coefficient of x^i."""

    __slots__ = ()

    #: the exponent of nums[0], as on LaurentPoly; always 0 here
    lo = 0

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return len(self.nums) - 1

    def coeff(self, k: int) -> Fraction:
        return self._at(k)

    def _basis(self, i: int) -> str:
        return f"*x^{i}"

    def __mul__(self, other: "XPoly") -> "XPoly":
        if self.is_zero or other.is_zero:
            return XPoly()
        return XPoly._make(_convolve(self.nums, other.nums), self.den * other.den)

    def shift_x(self, k: int) -> "XPoly":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return XPoly._new((0,) * k + self.nums, self.den)

    @classmethod
    def x_power(cls, j: int) -> "XPoly":
        return XPoly._new((0,) * j + (1,), 1)

    def mul_x(self) -> "XPoly":
        return self.shift_x(1)

    def to_x(self) -> "XPoly":
        return self

    def compose_scale(self, r: Rat) -> "XPoly":
        """Substitute x -> r*x."""
        if self.is_zero:
            return self
        return XPoly._make(*_scale_powers(self.nums, self.den, Fraction(r), 0))

    def derivative(self) -> "XPoly":
        return XPoly._make([i * v for i, v in enumerate(self.nums)][1:], self.den)

    def divide_x_exact(self) -> "XPoly":
        """Divide by x, requiring a zero constant term."""
        if self.is_zero:
            return self
        if self.nums[0] != 0:
            raise NonzeroRemainder("constant term nonzero, x does not divide")
        return XPoly._new(self.nums[1:], self.den)

    def divide_exact(self, g: "XPoly") -> "XPoly":
        """Return h with self == g*h, raising NonzeroRemainder otherwise."""
        q = LaurentPoly._make(self.nums, self.den).divide_exact(
            LaurentPoly._make(g.nums, g.den))
        if q.is_zero:
            return XPoly()
        if q.lo < 0:
            raise NonzeroRemainder("quotient is not a polynomial")
        return XPoly._new((0,) * q.lo + q.nums, q.den)

    def __call__(self, xv: Rat) -> Fraction:
        xv = Fraction(xv)
        acc = Fraction(0)
        for v in reversed(self.nums):
            acc = acc * xv + v
        return acc / self.den


# -- conversions between the x and z pictures ---------------------------
#
# Both directions are sums over two integer tables, each extended on first
# use to the largest degree asked for (row k has k + 1 entries):
#
#   _X_POWERS[n][k]   2^n x^n = sum_j C(n, j) z^(n-2j), so the entry is
#                     C(n, (n-k)/2) when n - k is even and 0 otherwise;
#   _SYM_BASIS[k]     x-coefficients of z^k + z^-k = 2 T_k(x) for k >= 1
#                     (row 0 is the constant 1), from the Chebyshev
#                     recurrence 2T_{k+1} = 2x * 2T_k - 2T_{k-1}, 2T_0 = 2.
#
# A degree-k conversion is then O(k^2) integer products and one gcd.

_X_POWERS: list = [(1,)]
_SYM_BASIS: list = [(1,), (0, 2)]


def _x_power_row(n: int) -> tuple:
    while len(_X_POWERS) <= n:
        m = len(_X_POWERS)
        _X_POWERS.append(tuple(comb(m, (m - k) // 2) if (m - k) % 2 == 0 else 0
                               for k in range(m + 1)))
    return _X_POWERS[n]


def _sym_basis_row(k: int) -> tuple:
    while len(_SYM_BASIS) <= k:
        t1 = _SYM_BASIS[-1]
        t0 = _SYM_BASIS[-2] if len(_SYM_BASIS) > 2 else (2,)   # 2 T_0 = 2, not 1
        row = [0] + [2 * c for c in t1]
        for i, c in enumerate(t0):
            row[i] -= c
        _SYM_BASIS.append(tuple(row))
    return _SYM_BASIS[k]


def combine(cls, weights: Sequence[Rat], rows: Sequence[Sequence[int]], den: int = 1):
    """The ``cls`` polynomial sum_k weights[k] * rows[k] / den, for integer
    rows no longer than weights.

    The weights are read over one common denominator, so the whole sum is
    integer arithmetic with one gcd at the end.
    """
    nums, wden = _cleared(weights)
    acc = [0] * len(nums)
    for m, row in zip(nums, rows):
        if m:
            for i, v in enumerate(row):
                if v:
                    acc[i] += m * v
    return cls._make(acc, wden * den)


def x_monomial_sym(n: int) -> SymLaurentPoly:
    """x^n written as a symmetric Laurent polynomial, x = (z + 1/z)/2:
    x^n = 2^-n sum_j C(n, j) z^(n-2j)."""
    return SymLaurentPoly._make(_x_power_row(n), 1 << n)


def x_to_sym(p: XPoly) -> SymLaurentPoly:
    """Substitute x = (z + 1/z)/2 into p, using
    x^n = 2^-n sum_j C(n, j) z^(n-2j) from a cached binomial table."""
    if p.is_zero:
        return SymLaurentPoly()
    top = len(p.nums) - 1
    weights = [v << (top - n) for n, v in enumerate(p.nums)]    # over 2^top
    rows = [_x_power_row(n) for n in range(top + 1)]
    return combine(SymLaurentPoly, weights, rows, p.den << top)


def sym_to_x(f: SymLaurentPoly) -> XPoly:
    """Inverse of :func:`x_to_sym`: the unique p with p((z+1/z)/2) = f[z].

    Reads f[z] = c_0 + sum_k c_k (z^k + z^-k) through z^k + z^-k = 2 T_k(x),
    with the integer Chebyshev coefficients taken from a cached table.
    """
    if f.is_zero:
        return XPoly()
    rows = [_sym_basis_row(k) for k in range(len(f.nums))]
    return combine(XPoly, f.nums, rows, f.den)


def divide_exact(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    return f.divide_exact(g)


#: z - 1/z, the divisor appearing in every divided-difference operator
Z_MINUS_ZINV = LaurentPoly(-1, (-1, 0, 1))

#: x = (z + 1/z)/2 on the symmetric side
_X_SYM = SymLaurentPoly([0, Fraction(1, 2)])

#: the polynomial type of each space name ("sym": symmetric Laurent in z,
#: "x": ordinary in x); both share x_power, mul_x and to_x
SPACES = {"sym": SymLaurentPoly, "x": XPoly}
