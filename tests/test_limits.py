from fractions import Fraction as F

import pytest

from qaskey import displays
from qaskey import families as fam
from qaskey import limits as lim
from qaskey import relations as rel


class TestCqJacobiToJacobi:
    def test_n0_degree_one(self):
        rows = lim.limit_cqjacobi_to_jacobi(1, 2, 0, k_range=range(3, 9))
        assert rows[-1].max_deviation < rows[0].max_deviation
        assert rows[-1].max_deviation < 1e-2

    def test_ratios_exceed_threshold(self):
        rows = lim.limit_cqjacobi_to_jacobi(1, 2, 3, k_range=range(3, 11))
        assert all(r.ratio is None or r.ratio >= 1.5 for r in rows)
        assert rows[-1].max_deviation < rows[0].max_deviation

    def test_gamma0_coefficient_limit(self):
        # (2/(1-q)) gamma_0(q) -> 4 * (-(alpha+beta+2)/2) = -2 (alpha+beta+2)
        alpha, beta = 1, 2
        target = -2 * (alpha + beta + 2)
        prev = None
        for k in (4, 6, 8, 10):
            spec = fam.cqjacobi_spec(alpha, beta, 1 - F(1, 2 ** (k + 2)))
            got = 2 / (1 - spec.q) * displays.cqjacobi_gamma(0, spec)
            err = abs(got - target)
            if prev is not None:
                assert err < prev
            prev = err
        assert prev < 1e-2

    def test_n3_final_deviation_small(self):
        rows = lim.limit_cqjacobi_to_jacobi(1, 2, 3, k_range=range(3, 13))
        assert rows[-1].max_deviation < 1e-3

    def test_noise_floor(self):
        # at a q of the limit grid the q-level structure relation (eq59)
        # still holds with an exactly zero residual: the table's
        # deviations carry no arithmetic noise
        fd = fam.build_family(fam.cqjacobi_spec(1, 2, 1 - F(1, 2 ** 12)), 3)
        rep = rel.display_check("eq59")(fd, [3])
        assert rep.identity_id == "eq59" and rep.passed
        assert [e.zero for e in rep.entries] == [True]


class TestAwToBigQ:
    def test_n0_exact_at_every_eps(self):
        rows = lim.limit_aw_to_bigq(F(1, 3), F(1, 4), F(1, 5), F(1, 2), 0,
                                    eps_ks=range(4, 8))
        for r in rows:
            assert r.max_deviation == 0

    def test_halving_eps_at_least_halves(self):
        rows = lim.limit_aw_to_bigq(F(1, 3), F(1, 4), F(1, 5), F(1, 2), 2,
                                    eps_ks=range(4, 12))
        for r in rows:
            assert r.ratio is None or r.ratio >= 2.0

    def test_deviation_over_eps_bounded(self):
        rows = lim.limit_aw_to_bigq(F(1, 3), F(1, 4), F(1, 5), F(1, 2), 3,
                                    eps_ks=range(4, 11))
        bounds = [r.max_deviation / 2.0 ** (-r.step) for r in rows]
        assert all(b <= bounds[0] for b in bounds)

    def test_wrong_argument_does_not_converge(self):
        # substituting z = x/a instead of z = x/eps leaves an x-free limit
        from qaskey import families as fam
        from qaskey.qcalc import q_pochhammer_multi
        a, b, c, q, n = F(1, 3), F(1, 4), F(1, 5), F(1, 2), 2
        target = fam.bigq_polynomials(n, fam.bigq_spec(a, b, c, q))[n]
        devs = []
        for k in (5, 7, 9):
            eps = F(1, 2 ** k)
            spec = fam.aw_spec(eps, a * q / eps, -c * q / eps, -eps * b / c, q=q)
            m = eps ** n / q_pochhammer_multi((a * q, -c * q, -eps * eps * b / c), q, n)
            r = fam.aw_polynomials(n, spec)[n].to_laurent().dilate(1 / a).scale(m)
            devs.append(max(abs(r.coeff(j) - target.coeff(j)) for j in range(-n, n + 1)))
        assert devs[-1] > F(1, 2)     # plateaus far from zero

    def test_structure_coefficients_converge(self):
        a, b, c, q, n = F(1, 3), F(1, 4), F(1, 5), F(1, 2), 2
        tplus, tminus = displays.DISPLAYS["eq40"].closed(fam.bigq_spec(a, b, c, q), n)
        prev = None
        for k in (4, 6, 8):
            sp, sm = lim._rescaled_structure_coeffs(a, b, c, q, F(1, 2 ** k), n)
            err = max(abs(sp - tplus), abs(sm - tminus))
            if prev is not None:
                assert err < prev / 4 + F(1, 10 ** 12)
            prev = err

    @pytest.mark.parametrize("a,b,n", [(2, F(1, 4), 3), (8, 1, 1)], ids=["aq-one", "abq3-one"])
    def test_inadmissible_bigq_point_rejected(self, a, b, n):
        # the big q-Jacobi point is validated before any division by its factors
        with pytest.raises(fam.InadmissibleParameters, match="degenerate denominator"):
            lim.limit_aw_to_bigq(a, b, F(1, 3), F(1, 2), n)

    def test_inadmissible_eps_rejected(self):
        from qaskey.families import InadmissibleParameters
        # eps = c*q makes the third parameter -eps^-1 c q = -1... still fine;
        # instead force a degenerate pair product: eps with a*q/eps * eps = aq ok.
        # eps equal to 1 breaks |eps| < 1 style admissibility via eps^2 = 1 = q^0
        with pytest.raises(InadmissibleParameters):
            lim.rescaled_aw_laurent(F(1, 3), F(1, 4), F(1, 5), F(1, 2), F(1), 2)


class TestCsv:
    def test_rows_and_header(self, tmp_path):
        rows = lim.limit_aw_to_bigq(F(1, 3), F(1, 4), F(1, 5), F(1, 2), 1,
                                    eps_ks=range(4, 8))
        path = tmp_path / "table.csv"
        lim.write_csv(rows, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,parameter_value,max_deviation,ratio"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "4" and first[3] == ""
