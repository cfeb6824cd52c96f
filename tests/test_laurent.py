import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qaskey.laurent import (LaurentPoly, NonzeroRemainder, SymLaurentPoly,
                            XPoly, Z_MINUS_ZINV, sym_to_x, x_monomial_sym,
                            x_to_sym)


def rand_laurent(rng, deg=6, den=7):
    lo = rng.randrange(-deg, 1)
    coeffs = [F(rng.randrange(-den, den + 1), rng.randrange(1, den)) for _ in range(deg)]
    return LaurentPoly(lo, coeffs)


def rand_sym(rng, deg=6, den=7):
    return SymLaurentPoly([F(rng.randrange(-den, den + 1), rng.randrange(1, den))
                           for _ in range(deg)])


class TestLaurentBasics:
    def test_zero_is_canonical(self):
        assert LaurentPoly(5, (0, 0)) == LaurentPoly()
        assert LaurentPoly().is_zero
        assert LaurentPoly(2, (0, 1, 0)).lo == 3

    def test_trimming(self):
        f = LaurentPoly(-2, (0, 1, 0, 3, 0))
        assert f.lo == -1 and f.coeffs == (F(1), F(0), F(3))

    def test_add_mul_degree(self):
        f = LaurentPoly(-1, (1, 0, 1))       # z^-1 + z
        g = f * f
        assert g == LaurentPoly(-2, (1, 0, 2, 0, 1))
        assert (f - f).is_zero

    def test_mul_degree_additivity(self):
        rng = random.Random(1)
        for _ in range(25):
            f, g = rand_laurent(rng), rand_laurent(rng)
            if f.is_zero or g.is_zero:
                continue
            assert (f * g).hi == f.hi + g.hi
            assert (f * g).lo == f.lo + g.lo

    def test_eval_matches_structure(self):
        f = LaurentPoly(-2, (3, 0, F(1, 2), 1))
        z = F(3, 2)
        assert f(z) == 3 * z ** -2 + F(1, 2) + z


class TestDivision:
    def test_example(self):
        f = LaurentPoly(-2, (-1, 0, 0, 0, 1))      # z^2 - z^-2
        assert f.divide_exact(Z_MINUS_ZINV) == LaurentPoly(-1, (1, 0, 1))

    def test_divide_by_one(self):
        f = LaurentPoly(-1, (2, 3))
        assert f.divide_exact(LaurentPoly(0, (1,))) == f

    def test_nonzero_remainder(self):
        f = LaurentPoly(-1, (-1, 1, 1))            # z - z^-1 + 1
        with pytest.raises(NonzeroRemainder):
            f.divide_exact(Z_MINUS_ZINV)

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            LaurentPoly(0, (1,)).divide_exact(LaurentPoly())

    def test_roundtrip_random(self):
        rng = random.Random(2)
        for _ in range(40):
            f, g = rand_laurent(rng), rand_laurent(rng)
            if g.is_zero:
                continue
            assert (f * g).divide_exact(g) == f


class TestDilation:
    def test_identity_dilation(self):
        f = LaurentPoly(-1, (1, 0, 1))
        assert f.dilate(1) == f

    def test_monomial(self):
        assert LaurentPoly(1, (1,)).dilate(F(1, 2)) == LaurentPoly(1, (F(1, 2),))

    def test_example(self):
        f = LaurentPoly(0, (3, 0, 1))              # z^2 + 3
        assert f.dilate(F(1, 2)) == LaurentPoly(0, (3, 0, F(1, 4)))

    def test_inverse_dilation(self):
        rng = random.Random(3)
        for _ in range(30):
            f = rand_laurent(rng)
            r = F(rng.randrange(1, 7), rng.randrange(1, 7))
            assert f.dilate(r).dilate(1 / r) == f

    def test_zero_factor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            LaurentPoly(0, (1,)).dilate(0)


class TestSymmetric:
    def test_embedding_symmetry(self):
        rng = random.Random(4)
        for _ in range(30):
            f, g = rand_sym(rng), rand_sym(rng)
            prod = f * g
            lp = prod.to_laurent()
            assert lp == lp.invert_z()

    def test_constant_conversion(self):
        one = SymLaurentPoly([1])
        assert sym_to_x(one) == XPoly([1])

    def test_zplus_zinv_is_2x(self):
        f = SymLaurentPoly([0, 1])
        assert sym_to_x(f) == XPoly([0, 2])

    def test_z2_conversion(self):
        # (z+1/z)^2 = z^2 + 2 + z^-2, so z^2 + z^-2 = 4x^2 - 2
        f = SymLaurentPoly([0, 0, 1])
        assert sym_to_x(f) == XPoly([-2, 0, 4])
        assert x_to_sym(XPoly([-2, 0, 4])) == f

    def test_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(20):
            f = rand_sym(rng, deg=21)
            assert x_to_sym(sym_to_x(f)) == f

    def test_roundtrip_from_x(self):
        rng = random.Random(6)
        for _ in range(20):
            p = XPoly([F(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(9)])
            assert sym_to_x(x_to_sym(p)) == p

    def test_degree_preserved(self):
        rng = random.Random(7)
        for _ in range(20):
            f = rand_sym(rng)
            if f.is_zero:
                continue
            assert sym_to_x(f).degree == f.degree

    def test_nonsymmetric_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly(0, (1, 1)).to_sym()

    def test_mul_example(self):
        f = SymLaurentPoly([0, 1])
        assert f * f == SymLaurentPoly([2, 0, 1])   # (z+1/z)^2


class TestXPoly:
    def test_ring_ops(self):
        p, q = XPoly([1, 2]), XPoly([0, 0, 3])
        assert p + q == XPoly([1, 2, 3])
        assert p * q == XPoly([0, 0, 3, 6])
        assert p.scale(0).is_zero

    def test_scale_add_neutral(self):
        rng = random.Random(8)
        for _ in range(20):
            p = XPoly([F(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(7)])
            assert p + XPoly() == p
            assert p.scale(0) == XPoly()

    def test_derivative_and_eval(self):
        p = XPoly([1, 0, 3])
        assert p.derivative() == XPoly([0, 6])
        assert p(F(1, 2)) == F(7, 4)

    def test_divide_exact(self):
        p = XPoly([-1, 0, 1])
        assert p.divide_exact(XPoly([1, 1])) == XPoly([-1, 1])
        with pytest.raises(NonzeroRemainder):
            XPoly([1, 1, 1]).divide_exact(XPoly([1, 1]))

    def test_x_monomial_sym(self):
        assert x_monomial_sym(0) == SymLaurentPoly([1])
        # x^2 = ((z+1/z)/2)^2 = (z^2 + 2 + z^-2)/4
        assert x_monomial_sym(2) == SymLaurentPoly([F(1, 2), 0, F(1, 4)])


# Direct evaluation at rational z uses neither conversion table, so it is
# an oracle for both: x = (z + 1/z)/2 links the two pictures pointwise.
_Z = (F(2), F(-3), F(1, 3), F(5, 7), F(-11, 4))
_COEFFS = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30),
                   max_size=41)


class TestConversionOracle:
    @settings(max_examples=60)
    @given(_COEFFS)
    def test_x_to_sym_pointwise(self, cs):
        p = XPoly(cs)
        f = x_to_sym(p)
        for z in _Z:
            assert f(z) == p((z + 1 / z) / 2)

    @settings(max_examples=60)
    @given(_COEFFS)
    def test_sym_to_x_pointwise(self, cs):
        f = SymLaurentPoly(cs)
        p = sym_to_x(f)
        for z in _Z:
            assert p((z + 1 / z) / 2) == f(z)

    def test_every_table_row_to_degree_40(self):
        for n in range(41):
            mono = XPoly([0] * n + [1])
            basis = SymLaurentPoly([0] * n + [1]) if n else SymLaurentPoly([1])
            for z in _Z:
                x = (z + 1 / z) / 2
                assert x_monomial_sym(n)(z) == x ** n
                assert x_to_sym(mono)(z) == x ** n
                assert sym_to_x(basis)(x) == (z ** n + z ** -n if n else 1)
