"""Exact Laurent-polynomial arithmetic over the rationals.

Three immutable polynomial flavours share the coefficient field
``fractions.Fraction``:

``LaurentPoly``
    f(z) = sum_{k=lo..hi} c_k z^k, finitely many terms, negative
    exponents allowed.

``SymLaurentPoly``
    f[z] = c_0 + sum_{k>=1} c_k (z^k + z^-k), invariant under
    z -> 1/z.  In bijection with ordinary polynomials of the same
    degree in x = (z + 1/z)/2.

``XPoly``
    ordinary polynomial in one variable x, coefficients ascending.

The zero polynomial is always the empty coefficient tuple, so
structural equality is mathematical equality.  All values are
immutable after construction and all operations are pure functions.

Ring operations (sums, products, exact division) and dilations
(z -> r z, x -> r x) run in one small integer kernel: each reads its
inputs as integer numerators over one least common denominator,
computes in plain ``int`` arithmetic, and builds one normalized
``Fraction`` per output coefficient.  A dilation by r = p/s is one
integer row n_i p^i s^(H-i) from running powers over one denominator,
not a ``Fraction`` power per coefficient.  Results are exactly those of
coefficient-wise ``Fraction`` arithmetic, at one gcd per output
coefficient instead of one or more per term.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]


class NonzeroRemainder(ArithmeticError):
    """An exact division left a remainder; some identity upstream is broken."""


def _frac(v: Rat) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


# -- the integer kernel -------------------------------------------------
#
# A coefficient sequence enters as integer numerators over its least
# common denominator (_lcd, _ints) and leaves as one normalized Fraction
# per entry (_fracs).  Everything in between is int arithmetic.

def _lcd(*seqs: Sequence[Rat]) -> int:
    """Least common denominator of every entry of the given sequences."""
    den = 1
    for seq in seqs:
        for c in seq:
            den = lcm(den, c.denominator)
    return den


def _ints(seq: Sequence[Rat], den: int) -> list:
    """Numerators of seq over den, a common multiple of its denominators."""
    return [c.numerator * (den // c.denominator) for c in seq]


def _fracs(nums: Sequence[int], den: int) -> list:
    return [Fraction(v, den) for v in nums]


def _convolve(a: Sequence[int], b: Sequence[int]) -> list:
    """Coefficients of the product of two nonempty integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


def _mul(a: Sequence[Rat], b: Sequence[Rat]) -> list:
    """Product of two nonempty coefficient sequences."""
    da, db = _lcd(a), _lcd(b)
    return _fracs(_convolve(_ints(a, da), _ints(b, db)), da * db)


def _sym_mul(a: Sequence[Rat], b: Sequence[Rat]) -> list:
    """Product in the basis 1, z^k + z^-k (see :class:`SymLaurentPoly`).

    With a_k = a_-k, the z^m coefficient (m >= 0) of the product is the
    convolution of the halves plus the terms pairing z^-s in one factor
    with z^(m+s) in the other (s >= 1).  Those are the entries of the
    convolution of the reversed tail a[:0:-1] with the tail b[1:], at lag
    m and -m, so lag 0 counts twice.
    """
    da, db = _lcd(a), _lcd(b)
    na, nb = _ints(a, da), _ints(b, db)
    out = _convolve(na, nb)
    if len(na) > 1 and len(nb) > 1:
        cross = _convolve(na[:0:-1], nb[1:])
        mid = len(na) - 2                  # the index of lag 0
        for lag, v in enumerate(cross, -mid):
            out[abs(lag)] += v
        out[0] += cross[mid]
    return _fracs(out, da * db)


def _add(a: Sequence[Rat], b: Sequence[Rat], a_at: int = 0, b_at: int = 0,
         sign: int = 1) -> list:
    """a + sign * b, entry i of a (of b) landing at index a_at + i (b_at + i)."""
    den = _lcd(a, b)
    out = [0] * max(a_at + len(a), b_at + len(b))
    for k, v in enumerate(_ints(a, den), a_at):
        out[k] = v
    for k, v in enumerate(_ints(b, den), b_at):
        out[k] += v if sign > 0 else -v
    return _fracs(out, den)


def _scale_powers(cs: Sequence[Rat], r: Fraction, lo: int) -> list:
    """c_i * r^(lo + i) for each entry c_i of cs, r = p/s.

    With H = len(cs) - 1 and n_i the numerators of cs over den, this is
    n_i p^i s^(H-i) * p^lo / (den s^(lo+H)): one integer row from running
    powers, with the factor p^lo / s^(lo+H) split into one numerator
    multiplier (the start of the running power of p) and one denominator.
    """
    if not cs:
        return []
    p, s = r.numerator, r.denominator
    den = _lcd(cs)
    nums = _ints(cs, den)
    h = len(cs) - 1
    hi = lo + h
    pp = 1
    if lo >= 0:
        pp = p ** lo
    else:
        den *= p ** -lo
    if hi >= 0:
        den *= s ** hi
    else:
        pp *= s ** -hi
    out, sp = [], s ** h
    for v in nums:
        out.append(v * pp * sp)
        pp *= p
        sp //= s
    return _fracs(out, den)


def _divide(f: Sequence[Rat], g: Sequence[Rat]) -> list | None:
    """q with f = g*q as ordinary polynomials, or None when g does not divide f.

    g is first written as (content / den) * gp with gp primitive.  A
    primitive divisor of an integer polynomial leaves an integer quotient
    (Gauss's lemma), so when g divides f every elimination step divides
    exactly by gp's leading coefficient; when it does not, some entry of
    the remainder stays nonzero.
    """
    df, dg = _lcd(f), _lcd(g)
    rem, gp = _ints(f, df), _ints(g, dg)
    content = 0
    for v in gp:
        content = gcd(content, v)
    gp = [v // content for v in gp]
    dn = len(gp) - 1
    lead = gp[dn]
    if len(rem) - 1 < dn:
        return None
    quot = [0] * (len(rem) - dn)
    for top in range(len(rem) - 1, dn - 1, -1):
        c = rem[top]
        if c:
            t = quot[top - dn] = c // lead
            for k, v in enumerate(gp, top - dn):
                rem[k] -= t * v
    if any(rem):
        return None
    # with f = F / df and g = content * gp / dg: f / g = (F / gp) * dg / (df * content)
    return _fracs([v * dg for v in quot], df * content)


class LaurentPoly:
    """f(z) = sum c_k z^k with coeffs[i] the coefficient of z^(lo+i).

    Stored normalized: first and last stored coefficients are nonzero;
    the zero polynomial is ``LaurentPoly()`` with empty coeffs and lo=0.
    """

    __slots__ = ("lo", "coeffs")

    def __init__(self, lo: int = 0, coeffs: Iterable[Rat] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        drop = 0
        while drop < len(cs) and cs[drop] == 0:
            drop += 1
        if drop:
            cs = cs[drop:]
            lo += drop
        object.__setattr__(self, "lo", lo if cs else 0)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def hi(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no top exponent")
        return self.lo + len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        i = k - self.lo
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.lo == other.lo and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.lo, self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        if self.is_zero:
            return "LaurentPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"({c})*z^{self.lo + i}")
        return "LaurentPoly(" + " + ".join(terms) + ")"

    # -- ring operations -----------------------------------------------

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        if other.is_zero:
            return self
        if self.is_zero:
            return other if sign > 0 else -other
        lo = min(self.lo, other.lo)
        return LaurentPoly(lo, _add(self.coeffs, other.coeffs,
                                    self.lo - lo, other.lo - lo, sign))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, 1)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.lo, [-c for c in self.coeffs])

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, -1)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero or other.is_zero:
            return LaurentPoly()
        return LaurentPoly(self.lo + other.lo, _mul(self.coeffs, other.coeffs))

    def scale(self, r: Rat) -> "LaurentPoly":
        r = _frac(r)
        if r == 0:
            return LaurentPoly()
        return LaurentPoly(self.lo, [c * r for c in self.coeffs])

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^k."""
        if self.is_zero:
            return self
        return LaurentPoly(self.lo + k, self.coeffs)

    def dilate(self, r: Rat) -> "LaurentPoly":
        """Substitute z -> r*z: the coefficient of z^k is scaled by r^k."""
        r = _frac(r)
        if r == 0:
            raise ZeroDivisionError("dilation factor must be nonzero")
        return LaurentPoly(self.lo, _scale_powers(self.coeffs, r, self.lo))

    def invert_z(self) -> "LaurentPoly":
        """Substitute z -> 1/z."""
        if self.is_zero:
            return self
        return LaurentPoly(-self.hi, tuple(reversed(self.coeffs)))

    def divide_exact(self, g: "LaurentPoly") -> "LaurentPoly":
        """Return h with self == g*h, raising NonzeroRemainder otherwise."""
        if g.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return LaurentPoly()
        # reduce to ordinary polynomial division; the normalized
        # representations both have nonzero constant term after the shift
        quot = _divide(self.coeffs, g.coeffs)
        if quot is None:
            raise NonzeroRemainder(f"{self!r} not divisible by {g!r}")
        return LaurentPoly(self.lo - g.lo, quot)

    def __call__(self, zv: Rat) -> Fraction:
        zv = _frac(zv)
        acc = Fraction(0)
        for i, c in enumerate(self.coeffs):
            acc += c * zv ** (self.lo + i)
        return acc

    # -- symmetry ------------------------------------------------------

    @property
    def is_symmetric(self) -> bool:
        return self == self.invert_z()

    def to_sym(self) -> "SymLaurentPoly":
        if self.is_zero:
            return SymLaurentPoly()
        if not self.is_symmetric:
            raise ValueError(f"not symmetric under z -> 1/z: {self!r}")
        return SymLaurentPoly([self.coeff(k) for k in range(self.hi + 1)])


class SymLaurentPoly:
    """f[z] = c[0] + sum_{k>=1} c[k] (z^k + z^-k).

    Trailing zero coefficients are stripped; the zero polynomial is the
    empty tuple.  Closed under addition and multiplication.
    """

    __slots__ = ("c",)

    def __init__(self, c: Iterable[Rat] = ()):
        cs = [_frac(v) for v in c]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "c", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("SymLaurentPoly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.c

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return len(self.c) - 1

    def coeff(self, k: int) -> Fraction:
        k = abs(k)
        return self.c[k] if k < len(self.c) else Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymLaurentPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        if self.is_zero:
            return "SymLaurentPoly(0)"
        parts = [f"({self.c[0]})"] if self.c[0] else []
        for k in range(1, len(self.c)):
            if self.c[k]:
                parts.append(f"({self.c[k]})*(z^{k}+z^-{k})")
        return "SymLaurentPoly(" + " + ".join(parts) + ")"

    def to_laurent(self) -> LaurentPoly:
        if self.is_zero:
            return LaurentPoly()
        n = self.degree
        cs = [Fraction(0)] * (2 * n + 1)
        cs[n] = self.c[0]
        for k in range(1, n + 1):
            cs[n + k] = self.c[k]
            cs[n - k] = self.c[k]
        return LaurentPoly(-n, cs)

    def __add__(self, other: "SymLaurentPoly") -> "SymLaurentPoly":
        return SymLaurentPoly(_add(self.c, other.c))

    def __neg__(self) -> "SymLaurentPoly":
        return SymLaurentPoly([-v for v in self.c])

    def __sub__(self, other: "SymLaurentPoly") -> "SymLaurentPoly":
        return SymLaurentPoly(_add(self.c, other.c, sign=-1))

    def __mul__(self, other: "SymLaurentPoly") -> "SymLaurentPoly":
        if self.is_zero or other.is_zero:
            return SymLaurentPoly()
        return SymLaurentPoly(_sym_mul(self.c, other.c))

    def scale(self, r: Rat) -> "SymLaurentPoly":
        r = _frac(r)
        if r == 0:
            return SymLaurentPoly()
        return SymLaurentPoly([v * r for v in self.c])

    def __call__(self, zv: Rat) -> Fraction:
        zv = _frac(zv)
        if self.is_zero:
            return Fraction(0)
        acc = self.c[0]
        for k in range(1, len(self.c)):
            acc += self.c[k] * (zv ** k + zv ** (-k))
        return acc

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


class XPoly:
    """Ordinary polynomial in x; coeffs[i] is the coefficient of x^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [_frac(v) for v in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("XPoly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, XPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        if self.is_zero:
            return "XPoly(0)"
        return "XPoly(" + " + ".join(
            f"({c})*x^{i}" for i, c in enumerate(self.coeffs) if c) + ")"

    def __add__(self, other: "XPoly") -> "XPoly":
        return XPoly(_add(self.coeffs, other.coeffs))

    def __neg__(self) -> "XPoly":
        return XPoly([-v for v in self.coeffs])

    def __sub__(self, other: "XPoly") -> "XPoly":
        return XPoly(_add(self.coeffs, other.coeffs, sign=-1))

    def __mul__(self, other: "XPoly") -> "XPoly":
        if self.is_zero or other.is_zero:
            return XPoly()
        return XPoly(_mul(self.coeffs, other.coeffs))

    def scale(self, r: Rat) -> "XPoly":
        r = _frac(r)
        if r == 0:
            return XPoly()
        return XPoly([v * r for v in self.coeffs])

    def shift_x(self, k: int) -> "XPoly":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return XPoly((Fraction(0),) * k + self.coeffs)

    @classmethod
    def x_power(cls, j: int) -> "XPoly":
        return XPoly((Fraction(0),) * j + (Fraction(1),))

    def mul_x(self) -> "XPoly":
        return self.shift_x(1)

    def to_x(self) -> "XPoly":
        return self

    def compose_scale(self, r: Rat) -> "XPoly":
        """Substitute x -> r*x."""
        return XPoly(_scale_powers(self.coeffs, _frac(r), 0))

    def derivative(self) -> "XPoly":
        return XPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def divide_x_exact(self) -> "XPoly":
        """Divide by x, requiring a zero constant term."""
        if self.is_zero:
            return self
        if self.coeffs[0] != 0:
            raise NonzeroRemainder("constant term nonzero, x does not divide")
        return XPoly(self.coeffs[1:])

    def divide_exact(self, g: "XPoly") -> "XPoly":
        """Return h with self == g*h, raising NonzeroRemainder otherwise."""
        q = LaurentPoly(0, self.coeffs).divide_exact(LaurentPoly(0, g.coeffs))
        if q.is_zero:
            return XPoly()
        if q.lo < 0:
            raise NonzeroRemainder("quotient is not a polynomial")
        return XPoly((Fraction(0),) * q.lo + q.coeffs)

    def __call__(self, xv: Rat) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * _frac(xv) + c
        return acc


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
# A degree-k conversion is then O(k^2) integer products and k divisions.

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


def _combine(coeffs, rows) -> list:
    """sum_k coeffs[k] * rows[k] for integer rows no longer than coeffs.

    The sum runs over one common denominator, so each output coefficient
    costs one gcd instead of one per term.  A row of Fractions enters as
    _ints(row, den) with its coefficient divided by den.
    """
    den = _lcd(coeffs)
    acc = [0] * len(coeffs)
    for c, row in zip(coeffs, rows):
        if c:
            m = c.numerator * (den // c.denominator)
            for i, v in enumerate(row):
                if v:
                    acc[i] += m * v
    return _fracs(acc, den)


def x_monomial_sym(n: int) -> SymLaurentPoly:
    """x^n written as a symmetric Laurent polynomial, x = (z + 1/z)/2:
    x^n = 2^-n sum_j C(n, j) z^(n-2j)."""
    return SymLaurentPoly([Fraction(v, 1 << n) for v in _x_power_row(n)])


def x_to_sym(p: XPoly) -> SymLaurentPoly:
    """Substitute x = (z + 1/z)/2 into p, using
    x^n = 2^-n sum_j C(n, j) z^(n-2j) from a cached binomial table."""
    if p.is_zero:
        return SymLaurentPoly()
    coeffs = [c / (1 << n) for n, c in enumerate(p.coeffs)]
    rows = [_x_power_row(n) for n in range(len(coeffs))]
    return SymLaurentPoly(_combine(coeffs, rows))


def sym_to_x(f: SymLaurentPoly) -> XPoly:
    """Inverse of :func:`x_to_sym`: the unique p with p((z+1/z)/2) = f[z].

    Reads f[z] = c_0 + sum_k c_k (z^k + z^-k) through z^k + z^-k = 2 T_k(x),
    with the integer Chebyshev coefficients taken from a cached table.
    """
    if f.is_zero:
        return XPoly()
    rows = [_sym_basis_row(k) for k in range(len(f.c))]
    return XPoly(_combine(f.c, rows))


def divide_exact(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    return f.divide_exact(g)


#: z - 1/z, the divisor appearing in every divided-difference operator
Z_MINUS_ZINV = LaurentPoly(-1, (Fraction(-1), Fraction(0), Fraction(1)))

#: x = (z + 1/z)/2 on the symmetric side
_X_SYM = SymLaurentPoly([Fraction(0), Fraction(1, 2)])

#: the polynomial type of each space name ("sym": symmetric Laurent in z,
#: "x": ordinary in x); both share x_power, mul_x and to_x
SPACES = {"sym": SymLaurentPoly, "x": XPoly}
