from fractions import Fraction as F

import pytest

from qaskey import displays
from qaskey import families as fam
from qaskey import operators as ops
from qaskey.laurent import LaurentPoly, SymLaurentPoly, XPoly, x_to_sym


AW = fam.aw_spec(F(1, 3), F(1, 4), F(1, 5), F(-1, 6), q=F(1, 2))


def _columns(op, max_col):
    """The x-coordinates of op(x^j), j = 0..max_col; columns are normalized,
    so equal operators give equal lists."""
    return [op.column(j) for j in range(max_col + 1)]


class TestOpX:
    def test_x_on_one(self):
        X = ops.op_x("x")
        assert X(XPoly([1])) == XPoly([0, 1])
        Xs = ops.op_x("sym")
        assert Xs(SymLaurentPoly([1])) == SymLaurentPoly([0, F(1, 2)])

    def test_expansion_matches_recurrence(self):
        fd = fam.build_family(AW, 6)
        X = ops.op_x("sym")
        for n in range(1, 5):
            lhs = X(fd.polys[n])
            rhs = (fd.polys[n + 1].scale(fd.A[n]) + fd.polys[n].scale(fd.B[n])
                   + fd.polys[n - 1].scale(fd.C[n]))
            assert lhs == rhs


class TestAwOperators:
    def test_L_raises_degree_with_gamma_slope(self):
        L = ops.aw_L(AW)
        fd = fam.build_family(AW, 6)
        out = L(SymLaurentPoly([1]))
        assert out.degree == 1
        for n in range(5):
            assert L.column(n).coeff(n + 1) == fd.gamma[n]

    def test_D_annihilates_constants(self):
        D = ops.aw_D(AW)
        assert D(SymLaurentPoly([1])).is_zero

    def test_D_eigen_p1(self):
        fd = fam.build_family(AW, 4)
        D = ops.aw_D(AW)
        assert D(fd.polys[1]) == fd.polys[1].scale(fd.lam[1])
        abcd = F(1, 3) * F(1, 4) * F(1, 5) * F(-1, 6)
        q = F(1, 2)
        # (1 - 1/q)/2 * lam_1 = (1/q - 1)(1 - abcd)
        assert (1 - 1 / q) / 2 * fd.lam[1] == (1 / q - 1) * (1 - abcd)

    def test_commutator_equals_L(self):
        D, X, L = ops.aw_D(AW), ops.op_x("sym"), ops.aw_L(AW)
        assert _columns(ops.commutator(D, X), 8) == _columns(L, 8)

    def test_commutator_with_scalar_multiple_of_identity_vanishes(self):
        D = ops.aw_D(AW)
        scalar = ops.PolyOperator(lambda f: f.scale(F(3, 7)), "sym", 0, "c*Id")
        comm = ops.commutator(D, scalar)
        for j in range(6):
            assert comm(comm.basis(j)).is_zero

    def test_d_from_l_equals_D(self):
        L = ops.aw_L(AW)
        assert _columns(ops.d_from_l(L), 8) == _columns(ops.aw_D(AW), 8)

    def test_d_from_l_base_cases(self):
        L = ops.aw_L(AW)
        D = ops.d_from_l(L)
        assert D(SymLaurentPoly([1])).is_zero          # D(1) = 0
        x_sym = x_to_sym(XPoly([0, 1]))
        assert D(x_sym) == L(SymLaurentPoly([1]))      # D(x) = L(1)


class TestJacobiOperators:
    SPEC = fam.jacobi_spec(1, 2)

    def test_L_on_one(self):
        L = ops.jacobi_L(self.SPEC)
        al, be = F(1), F(2)
        assert L(XPoly([1])) == XPoly([-(al - be) / 2, -(al + be + 2) / 2])

    def test_D_on_x(self):
        D = ops.jacobi_D(self.SPEC)
        al, be = F(1), F(2)
        assert D(XPoly([0, 1])) == XPoly([(be - al) / 2, -(al + be + 2) / 2])

    def test_commutator(self):
        D, X, L = ops.jacobi_D(self.SPEC), ops.op_x("x"), ops.jacobi_L(self.SPEC)
        assert _columns(ops.commutator(D, X), 8) == _columns(L, 8)

    def test_string_equation_sign(self):
        # [X, L] acts as multiplication by -(1 - x^2)
        L, X = ops.jacobi_L(self.SPEC), ops.op_x("x")
        comm = ops.commutator(X, L)
        mult = XPoly([-1, 0, 1])
        for j in range(6):
            e = XPoly([0] * j + [1])
            assert comm(e) == mult * e


class TestSpecializations:
    """The operators of the restricted families are the Askey-Wilson ones at
    the restricted point; each is checked against the paper's specialized
    v(z) in (v(z) f[step z] - v(1/z) f[z/step]) / (z - 1/z), written out."""

    @staticmethod
    def _factors(*zeros):
        """prod (1 - r z) over the zeros r."""
        out = LaurentPoly(0, (1,))
        for r in zeros:
            out = out * LaurentPoly(0, (1, -r))
        return out

    def test_cqjacobi_L_is_specialized_aw(self):
        spec = fam.cqjacobi_spec(1, 2, F(1, 2))
        s = spec.base                               # q = s^4
        # step q^(1/2): v(z) = (1 - q^(a/2+1/4) z)(1 + q^(b/2+1/4) z)(1 - q^(1/2) z^2) z^-2
        v = self._factors(s ** 3, -s ** 5) * LaurentPoly(-2, (1, 0, -s ** 2))
        assert (_columns(ops.family_L(spec), 6)
                == _columns(ops.divided_shift_op(v, s ** 2, "v"), 6))
        # step q: v(z) = (1 - q^(a/2+1/4) z)(1 - q^(a/2+3/4) z)
        #                (1 + q^(b/2+1/4) z)(1 + q^(b/2+3/4) z) z^-2
        vt = self._factors(s ** 3, s ** 5, -s ** 5, -s ** 7).shift(-2)
        assert (_columns(ops.aw_L(fam.cqjacobi_aw_spec(spec, 9)), 6)
                == _columns(ops.divided_shift_op(vt, s ** 4, "vt"), 6))

    def test_cqjacobi_gamma_slopes(self):
        spec = fam.cqjacobi_spec(1, 2, F(1, 2))
        L, Lt = ops.family_L(spec), ops.aw_L(fam.cqjacobi_aw_spec(spec, 9))
        assert L.column(0).coeff(1) == displays.cqjacobi_gamma(0, spec)
        assert Lt.column(0).coeff(1) == displays.cqjacobi_gamma(0, spec, 2)
        s = spec.base
        # gamma_0 = 2 (q^((alpha+beta+2)/2) - 1), gamma~_0 = 2 (q^(alpha+beta+2) - 1)
        assert L.column(0).coeff(1) == 2 * (s ** (2 * (1 + 2 + 2)) - 1)
        assert Lt.column(0).coeff(1) == 2 * (s ** (4 * (1 + 2 + 2)) - 1)

    def test_cqultra_L_is_specialized_aw(self):
        spec = fam.cqultra_spec(F(1, 2), F(1, 2))
        t, qh = spec.params["t"], spec.base ** 2
        # step q^(1/2): v(z) = (1 - t z^2)(z^-2 - q^(1/2))
        v = LaurentPoly(0, (1, 0, -t)) * LaurentPoly(-2, (1, 0, -qh))
        assert (_columns(ops.family_L(spec), 6)
                == _columns(ops.divided_shift_op(v, qh, "v"), 6))

    def test_cqultra_L_on_C1_reproduces_structure(self):
        spec = fam.cqultra_spec(F(1, 2), F(1, 2))
        fd = fam.build_family(spec, 4)
        rhs = (fd.polys[2].scale(fd.gamma[1] * fd.A[1])
               - fd.polys[0].scale(fd.gamma[0] * fd.C[1]))
        assert fd.L(fd.polys[1]) == rhs


class TestBigQOperators:
    SPEC = fam.bigq_spec(F(1, 3), F(1, 4), F(1, 5), F(1, 2))

    def test_L_on_one_frozen(self):
        a, b, c, q = F(1, 3), F(1, 4), F(1, 5), F(1, 2)
        L = ops.bigq_L(self.SPEC)
        expect = XPoly([(b / c - 1) - (1 / (c * q) - 1 / (a * q)),
                        1 / (a * c * q * q) - b / c])
        assert L(XPoly([1])) == expect

    def test_L_raises_degree_by_one(self):
        L = ops.bigq_L(self.SPEC)
        for n in range(11):
            out = L(XPoly([0] * n + [1]))
            assert out.degree == n + 1

    def test_commutator_with_reconstructed_D(self):
        L = ops.bigq_L(self.SPEC)
        D = ops.d_from_l(L)
        assert _columns(ops.commutator(D, ops.op_x("x")), 8) == _columns(L, 8)


class TestNonskewOperator:
    def test_maps_symmetric_to_symmetric(self):
        spec = fam.cqultra_spec(F(1, 2), F(1, 2))
        T = ops.cqultra_nonskew_op(spec)
        out = T(SymLaurentPoly([1]))
        t = spec.params["t"]
        assert out == SymLaurentPoly([0, 1 - t])

    def test_is_eq52_minus_eq51_rhs(self):
        spec = fam.cqultra_spec(F(1, 3), F(1, 2))
        fd = fam.build_family(spec, 5)
        T = ops.cqultra_nonskew_op(spec)
        t, q, s = spec.params["t"], spec.q, spec.base
        for n in range(1, 4):
            rhs = (fd.polys[n + 1].scale(s ** (-2 * n) * (1 - q ** (n + 1)))
                   - fd.polys[n - 1].scale(s ** (-2 * n) * (1 - t * t * q ** (n - 1))))
            assert T(fd.polys[n]) == rhs


class TestCqUltraWeb:
    def test_left_sides_raise_degree_by_their_shift(self):
        # at a sampled point every left side, and the bare shift
        # f[q^(1/2) z] + f[z / q^(1/2)], sends x^j to a symmetric polynomial
        # of degree exactly j + degree_shift
        spec = fam.sample_specs(fam.CQU, 1, seed=1, n_max=8)[0]
        web = ops.cqultra_web(spec)
        assert {key: op.degree_shift for key, op in web.items()} == {
            "eq51": 1, "eq52": 1, "eq53": 1, "eq55": 1, "qdiff2": 2}
        bare = ops.shift_op(LaurentPoly(0, (1,)), spec.qpow(F(1, 2)), "S", 0)
        for op in (*web.values(), bare):
            for j in range(7):
                out = op(SymLaurentPoly.x_power(j))
                assert isinstance(out, SymLaurentPoly), op.name
                assert out.degree == j + op.degree_shift, (op.name, j)


class TestSklyanin:
    def test_e_equal_one_trivial(self):
        a, b, c, d, q = (AW.params[k] for k in "abcdq")
        lhs = ops.compose(ops.aw_L(fam.aw_spec(a, b, c, d, q=q)),
                          ops.aw_L(fam.aw_spec(q * a, q * b, c / q, d / q, q=q)))
        rhs = ops.compose(ops.aw_L(AW),
                          ops.aw_L(fam.aw_spec(q * a, q * b, c / q, d / q, q=q)))
        assert _columns(lhs, 6) == _columns(rhs, 6)

    def test_e_two_on_constant(self):
        a, b, c, d, q = (AW.params[k] for k in "abcdq")
        e = F(2)
        lhs = ops.compose(ops.aw_L(fam.aw_spec(a, b, c * e, d / e, q=q)),
                          ops.aw_L(fam.aw_spec(q * a, q * b, c / q, d / q, q=q)))
        rhs = ops.compose(ops.aw_L(AW),
                          ops.aw_L(fam.aw_spec(q * a, q * b, c * e / q, d / (e * q), q=q)))
        one = SymLaurentPoly([1])
        assert lhs(one) == rhs(one)
        assert lhs(one).degree == 2
        assert _columns(lhs, 8) == _columns(rhs, 8)


class TestActionLinearity:
    def test_random_linear_combinations(self):
        import random
        rng = random.Random(20)
        L = ops.aw_L(AW)
        for _ in range(5):
            f = SymLaurentPoly([F(rng.randrange(-5, 6), rng.randrange(1, 5))
                                for _ in range(5)])
            g = SymLaurentPoly([F(rng.randrange(-5, 6), rng.randrange(1, 5))
                                for _ in range(5)])
            c = F(rng.randrange(1, 7), rng.randrange(1, 7))
            assert L(f.scale(c) + g) == L(f).scale(c) + L(g)

    def test_matrix_columns_match_action(self):
        L = ops.aw_L(AW)
        for j in range(5):
            col = L.column(j)
            from qaskey.laurent import sym_to_x, x_monomial_sym
            assert col == sym_to_x(L(x_monomial_sym(j)))
