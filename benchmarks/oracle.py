"""Pointwise oracle for the structure relations, independent of qaskey.

For Askey-Wilson, Jacobi and big q-Jacobi it evaluates both sides of

    L p_n = plus_n p_{n+1} + minus_n p_{n-1}

at a few rational points with nothing but ``fractions.Fraction``: the
polynomials come from their hypergeometric (or explicit Jacobi) sums,
``L`` from its defining difference (or differential) expression, and
``plus_n``, ``minus_n`` from the paper's closed forms (eq18, eq26,
eq40).  The generic relation eq28 is the same identity, since its
coefficients gamma_n A_n and -gamma_{n-1} C_n equal those closed forms,
so its entries are checked the same way.

``perturb=True`` adds 1 to ``plus_n``: the negative control, which must
make every check fail.
"""

from __future__ import annotations

from fractions import Fraction

#: report family name -> identity ids whose entries the oracle re-checks
STRUCTURE_IDS = {
    "askey-wilson": ("eq18", "eq28"),
    "jacobi": ("eq26", "eq28"),
    "big-q-jacobi": ("eq40", "eq28"),
}

#: rational evaluation points; none is a pole (z = +-1, x = 0)
_Z = (Fraction(2), Fraction(-3, 2), Fraction(5, 3))
_X = (Fraction(1, 3), Fraction(-2, 5), Fraction(3, 2))


def _poch(a: Fraction, q: Fraction, k: int) -> Fraction:
    acc = Fraction(1)
    for j in range(k):
        acc *= 1 - a * q ** j
    return acc


def _binom(r: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient C(r, k) for rational r."""
    acc = Fraction(1)
    for i in range(k):
        acc = acc * (r - i) / (i + 1)
    return acc


class _AskeyWilson:
    def __init__(self, p):
        self.a, self.b, self.c, self.d, self.q = (p[k] for k in "abcdq")
        self._memo = {}

    def poly(self, n: int, z: Fraction) -> Fraction:
        """(ab,ac,ad;q)_n a^-n 4phi3(q^-n, abcd q^(n-1), az, a/z; ab, ac, ad; q, q)."""
        key = (n, z)
        if key not in self._memo:
            a, b, c, d, q = self.a, self.b, self.c, self.d, self.q
            abcd = a * b * c * d
            total, term = Fraction(1), Fraction(1)
            for j in range(n):
                term *= ((1 - q ** (j - n)) * (1 - abcd * q ** (n - 1 + j))
                         * (1 - a * z * q ** j) * (1 - a / z * q ** j) * q)
                term /= ((1 - a * b * q ** j) * (1 - a * c * q ** j)
                         * (1 - a * d * q ** j) * (1 - q ** (j + 1)))
                total += term
            pref = _poch(a * b, q, n) * _poch(a * c, q, n) * _poch(a * d, q, n)
            self._memo[key] = pref * total / a ** n
        return self._memo[key]

    def _v(self, z: Fraction) -> Fraction:
        return ((1 - self.a * z) * (1 - self.b * z) * (1 - self.c * z)
                * (1 - self.d * z) / (z * z))

    def lhs(self, n: int, z: Fraction) -> Fraction:
        """(v(z) p_n(qz) - v(1/z) p_n(z/q)) / (z - 1/z)."""
        q = self.q
        return ((self._v(z) * self.poly(n, q * z) - self._v(1 / z) * self.poly(n, z / q))
                / (z - 1 / z))

    def coeffs(self, n: int):
        a, b, c, d, q = self.a, self.b, self.c, self.d, self.q
        abcd = a * b * c * d
        den = 1 - abcd * q ** (2 * n - 1)
        plus = -(1 - abcd * q ** (n - 1)) / (q ** n * den)
        minus = (1 - q ** n) / (q ** (n - 1) * den)
        for pair in (a * b, a * c, a * d, b * c, b * d, c * d):
            minus *= 1 - pair * q ** (n - 1)
        return plus, minus

    points = _Z


class _Jacobi:
    def __init__(self, p):
        self.al, self.be = p["alpha"], p["beta"]

    @staticmethod
    def _p(n: int, al: Fraction, be: Fraction, x: Fraction) -> Fraction:
        """sum_s C(n+al, n-s) C(n+be, s) ((x-1)/2)^s ((x+1)/2)^(n-s)."""
        lo, hi = (x - 1) / 2, (x + 1) / 2
        return sum((_binom(n + al, n - s) * _binom(n + be, s) * lo ** s * hi ** (n - s)
                    for s in range(n + 1)), Fraction(0))

    def poly(self, n: int, x: Fraction) -> Fraction:
        return self._p(n, self.al, self.be, x)

    def lhs(self, n: int, x: Fraction) -> Fraction:
        """(1-x^2) P_n'(x) - ((al-be) + (al+be+2) x)/2 P_n(x), with
        P_n' = (n+al+be+1)/2 P_{n-1}^(al+1, be+1)."""
        al, be = self.al, self.be
        deriv = (n + al + be + 1) / 2 * self._p(n - 1, al + 1, be + 1, x)
        return (1 - x * x) * deriv - ((al - be) + (al + be + 2) * x) / 2 * self.poly(n, x)

    def coeffs(self, n: int):
        al, be = self.al, self.be
        den = 2 * n + al + be + 1
        return -(n + 1) * (n + al + be + 1) / den, (n + al) * (n + be) / den

    points = _X


class _BigQJacobi:
    def __init__(self, p):
        self.a, self.b, self.c, self.q = (p[k] for k in "abcq")
        self._memo = {}

    def poly(self, n: int, x: Fraction) -> Fraction:
        """3phi2(q^-n, ab q^(n+1), x; aq, -cq; q, q)."""
        key = (n, x)
        if key not in self._memo:
            a, b, c, q = self.a, self.b, self.c, self.q
            total, term = Fraction(1), Fraction(1)
            for j in range(n):
                term *= ((1 - q ** (j - n)) * (1 - a * b * q ** (n + 1 + j))
                         * (1 - x * q ** j) * q)
                term /= (1 - a * q ** (j + 1)) * (1 + c * q ** (j + 1)) * (1 - q ** (j + 1))
                total += term
            self._memo[key] = total
        return self._memo[key]

    def lhs(self, n: int, x: Fraction) -> Fraction:
        """((1-x)(1+bx/c) p_n(qx) - (1-x/(aq))(1+x/(cq)) p_n(x/q)) / x."""
        a, b, c, q = self.a, self.b, self.c, self.q
        up = (1 - x) * (1 + b * x / c) * self.poly(n, q * x)
        down = (1 - x / (a * q)) * (1 + x / (c * q)) * self.poly(n, x / q)
        return (up - down) / x

    def coeffs(self, n: int):
        a, b, c, q = self.a, self.b, self.c, self.q
        den = 1 - a * b * q ** (2 * n + 1)
        plus = ((1 - a * q ** (n + 1)) * (1 + c * q ** (n + 1)) * (1 - a * b * q ** (n + 1))
                / (q ** (n + 2) * a * c * den))
        minus = -(1 - q ** n) * (1 - b * q ** n) * (1 + a * b * q ** n / c) / den
        return plus, minus

    points = _X


_FAMILIES = {"askey-wilson": _AskeyWilson, "jacobi": _Jacobi,
             "big-q-jacobi": _BigQJacobi}


class Oracle:
    """Checks structure-relation entries of one family at one parameter point."""

    def __init__(self, family: str, params: dict):
        self._fam = _FAMILIES[family]({k: Fraction(v) for k, v in params.items()})

    def mismatch(self, n: int, perturb: bool = False):
        """The first evaluation point where the two sides differ, or None."""
        plus, minus = self._fam.coeffs(n)
        if perturb:
            plus += 1
        f = self._fam
        for t in f.points:
            if f.lhs(n, t) != plus * f.poly(n + 1, t) + minus * f.poly(n - 1, t):
                return t
        return None
