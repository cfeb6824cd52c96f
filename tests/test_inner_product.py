import random
from fractions import Fraction as F

import pytest

from qaskey import families as fam
from qaskey import operators as ops
from qaskey.inner_product import inner, skew_symmetry_residual, symmetry_residual
from qaskey.laurent import SymLaurentPoly, XPoly, x_to_sym


AW = fam.aw_spec(F(1, 3), F(1, 4), F(1, 5), F(-1, 6), q=F(1, 2))
JAC = fam.jacobi_spec(1, 2)


def _reconstruct(fd, coeffs):
    """sum_n coeffs[n] p_n in x coordinates."""
    out = XPoly()
    for p, c in zip(fd.polys_x, coeffs):
        out = out + p.scale(c)
    return out


@pytest.fixture(scope="module")
def aw_fd():
    return fam.build_family(AW, 10)


@pytest.fixture(scope="module")
def jac_fd():
    return fam.build_family(JAC, 10)


class TestExpansion:
    def test_family_elements_are_unit_vectors(self, aw_fd):
        assert aw_fd.expand(aw_fd.polys[3]) == [0, 0, 0, 1]
        assert aw_fd.expand(SymLaurentPoly([1])) == [1]

    def test_x_times_p2_matches_recurrence(self, jac_fd):
        f = jac_fd.polys[2].shift_x(1)
        co = jac_fd.expand(f)
        assert co == [0, jac_fd.C[2], jac_fd.B[2], jac_fd.A[2]]

    def test_roundtrip_random(self, jac_fd):
        rng = random.Random(30)
        for _ in range(10):
            f = XPoly([F(rng.randrange(-9, 10), rng.randrange(1, 8))
                       for _ in range(11)])
            co = jac_fd.expand(f)
            assert _reconstruct(jac_fd, co) == f

    def test_roundtrip_random_sym(self, aw_fd):
        from qaskey.laurent import sym_to_x
        rng = random.Random(31)
        for _ in range(8):
            f = SymLaurentPoly([F(rng.randrange(-5, 6), rng.randrange(1, 5))
                                for _ in range(10)])
            co = aw_fd.expand(f)
            assert _reconstruct(aw_fd, co) == sym_to_x(f)

    def test_degree_cap(self, jac_fd):
        with pytest.raises(fam.ExpansionError):
            jac_fd.expand(XPoly([0] * 30 + [1]))


class TestInner:
    def test_normalization(self, aw_fd):
        one = SymLaurentPoly([1])
        assert inner(one, one, aw_fd) == 1

    def test_orthogonality(self, aw_fd):
        for m in range(5):
            for n in range(5):
                got = inner(aw_fd.polys[m], aw_fd.polys[n], aw_fd)
                assert got == (aw_fd.h[n] if m == n else 0)

    def test_inner_xx(self, jac_fd):
        x = XPoly([0, 1])
        expect = jac_fd.B[0] ** 2 * jac_fd.h[0] + jac_fd.A[0] ** 2 * jac_fd.h[1]
        assert inner(x, x, jac_fd) == expect

    def test_bilinear_symmetric(self, jac_fd):
        rng = random.Random(32)
        for _ in range(6):
            f = XPoly([F(rng.randrange(-5, 6), rng.randrange(1, 5)) for _ in range(6)])
            g = XPoly([F(rng.randrange(-5, 6), rng.randrange(1, 5)) for _ in range(6)])
            h = XPoly([F(rng.randrange(-5, 6), rng.randrange(1, 5)) for _ in range(6)])
            c = F(rng.randrange(1, 5), rng.randrange(1, 5))
            assert inner(f, g, jac_fd) == inner(g, f, jac_fd)
            assert inner(f.scale(c) + h, g, jac_fd) == \
                c * inner(f, g, jac_fd) + inner(h, g, jac_fd)

    def test_positive_definite_on_samples(self, aw_fd):
        # |a|,|b|,|c|,|d| < 1 so every h_n > 0 and the pairing is positive
        rng = random.Random(33)
        for _ in range(5):
            f = SymLaurentPoly([F(rng.randrange(-5, 6), rng.randrange(1, 5))
                                for _ in range(8)])
            if f.is_zero:
                continue
            assert inner(f, f, aw_fd) > 0


class TestResiduals:
    def test_skew_L(self, aw_fd):
        assert skew_symmetry_residual(ops.aw_L(AW), aw_fd, 8) == 0

    def test_sym_D(self, aw_fd):
        assert symmetry_residual(ops.aw_D(AW), aw_fd, 8) == 0

    def test_sym_X(self, aw_fd):
        assert symmetry_residual(ops.op_x("sym"), aw_fd, 8) == 0

    def test_jacobi_all(self, jac_fd):
        assert skew_symmetry_residual(ops.jacobi_L(JAC), jac_fd, 8) == 0
        assert symmetry_residual(ops.jacobi_D(JAC), jac_fd, 8) == 0
        assert symmetry_residual(ops.op_x("x"), jac_fd, 8) == 0

    def test_nonskew_operator_detected(self):
        spec = fam.cqultra_spec(F(1, 2), F(1, 2))
        fd = fam.build_family(spec, 8)
        assert skew_symmetry_residual(ops.cqultra_nonskew_op(spec), fd, 6) != 0
        assert skew_symmetry_residual(fd.L, fd, 6) == 0

    def test_skew_detects_symmetric(self, aw_fd):
        # X is symmetric, so its skew residual must be nonzero
        assert skew_symmetry_residual(ops.op_x("sym"), aw_fd, 4) != 0
