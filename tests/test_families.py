import hashlib
from fractions import Fraction as F

import pytest

from qaskey import cli
from qaskey import families as fam
from qaskey import relations as rel
from qaskey.laurent import SymLaurentPoly, XPoly, sym_to_x


AW_SAMPLE = dict(a=F(1, 3), b=F(1, 4), c=F(1, 5), d=F(-1, 6), q=F(1, 2))


@pytest.fixture(scope="module")
def aw_fd():
    return fam.build_family(fam.aw_spec(**AW_SAMPLE), 8)


class TestAskeyWilson:
    def test_p0(self):
        spec = fam.aw_spec(**AW_SAMPLE)
        assert fam.aw_polynomials(0, spec)[0] == SymLaurentPoly([1])

    def test_leading_coefficient_p1(self, aw_fd):
        abcd = AW_SAMPLE["a"] * AW_SAMPLE["b"] * AW_SAMPLE["c"] * AW_SAMPLE["d"]
        assert aw_fd.k[1] == 2 * (1 - abcd)

    def test_k_closed_form(self, aw_fd):
        from qaskey.qcalc import q_pochhammer
        abcd = AW_SAMPLE["a"] * AW_SAMPLE["b"] * AW_SAMPLE["c"] * AW_SAMPLE["d"]
        q = AW_SAMPLE["q"]
        for n in range(7):
            assert aw_fd.k[n] == 2 ** n * q_pochhammer(abcd * q ** (n - 1), q, n)

    def test_degree_exactness(self, aw_fd):
        for n in range(9):
            assert aw_fd.polys[n].degree == n

    def test_recurrence_matches_hypergeometric(self, aw_fd):
        rebuilt = fam._polys_from_recurrence(aw_fd.A, aw_fd.B, aw_fd.C, 8, "sym")
        for n in range(9):
            assert rebuilt[n] == aw_fd.polys[n]

    def test_expansion_recovers_recurrence(self, aw_fd):
        for n in range(7):
            assert fam.recurrence_from_expansion(aw_fd, n) == \
                (aw_fd.A[n], aw_fd.B[n], aw_fd.C[n])

    def test_lambda_gamma(self, aw_fd):
        q = AW_SAMPLE["q"]
        abcd = AW_SAMPLE["a"] * AW_SAMPLE["b"] * AW_SAMPLE["c"] * AW_SAMPLE["d"]
        assert aw_fd.lam[0] == 0
        assert aw_fd.gamma[0] == 2 * (abcd - 1)
        for n in range(8):
            assert aw_fd.gamma[n] == 2 * (abcd * q ** n - q ** (-n))
            assert aw_fd.gamma[n] == aw_fd.lam[n + 1] - aw_fd.lam[n]
            assert aw_fd.gamma[n] != 0

    def test_A0_k_ratio(self, aw_fd):
        assert aw_fd.A[0] * aw_fd.k[1] == aw_fd.k[0] == 1

    def test_h1_closed_form(self, aw_fd):
        a, b, c, d, q = (AW_SAMPLE[k] for k in "abcdq")
        abcd = a * b * c * d
        expect = ((1 - abcd / q) * (1 - q) * (1 - a * b) * (1 - a * c) * (1 - a * d)
                  * (1 - b * c) * (1 - b * d) * (1 - c * d)
                  / ((1 - abcd * q) * (1 - abcd / q)))
        assert aw_fd.h[1] == expect
        # recursive path agrees
        assert aw_fd.h[1] == aw_fd.C[1] / aw_fd.A[0]

    def test_norm_positivity(self, aw_fd):
        for n in range(8):
            assert aw_fd.h[n] > 0

    def test_inadmissible_rejected(self):
        # ad = 2 = q^-1 hits a pair-product denominator
        spec = fam.aw_spec(F(1, 2), F(1, 2), F(1, 2), F(4), q=F(1, 2))
        with pytest.raises(fam.InadmissibleParameters):
            fam.validate_spec(spec, 4)

    def test_zero_parameter_rejected(self):
        with pytest.raises(fam.InadmissibleParameters):
            fam.validate_spec(fam.aw_spec(0, F(1, 2), F(1, 3), F(1, 4), q=F(1, 2)), 4)


class TestJacobi:
    def test_p1_closed_form(self):
        fd = fam.build_family(fam.jacobi_spec(1, 2), 4)
        # P_1 = ((alpha+beta+2) x + alpha-beta)/2
        assert fd.polys[1] == XPoly([F(-1, 2), F(5, 2)])

    def test_legendre_values(self):
        fd = fam.build_family(fam.jacobi_spec(0, 0), 4)
        assert fd.polys[2] == XPoly([F(-1, 2), 0, F(3, 2)])
        assert fd.B[0] == 0

    def test_lambda_formula(self):
        al, be = F(1, 2), F(3, 4)
        fd = fam.build_family(fam.jacobi_spec(al, be), 6)
        for n in range(7):
            assert fd.lam[n] == -F(n) * (n + al + be + 1) / 2
            if n < 6:
                assert fd.gamma[n] == -(2 * n + al + be + 2) / 2

    def test_alpha_beta_bounds(self):
        with pytest.raises(fam.InadmissibleParameters):
            fam.jacobi_spec(-1, 0)

    def test_dual_path_sees_a_wrong_recurrence(self, monkeypatch):
        # p_n comes from its 2F1 sum, so dual-path's recurrence rebuild is
        # an independent construction: doubling A_n (n >= 1) must fail it
        real = fam.jacobi_coefficients

        def doubled(n, spec):
            A, *rest = real(n, spec)
            return (2 * A if n else A, *rest)

        monkeypatch.setattr(fam, "jacobi_coefficients", doubled)
        fd = fam.build_family(fam.jacobi_spec(F(1, 2), F(1, 3)), 6)
        assert not rel.check_dual_path(fd, 6).passed


class TestContinuousQJacobi:
    def test_embeddings_agree(self):
        spec = fam.cqjacobi_spec(1, 2, F(1, 2))
        assert fam.cqjacobi_polynomials(8, spec, 49) == fam.cqjacobi_polynomials(8, spec, 9)

    def test_embeddings_agree_half_integer(self):
        spec = fam.cqjacobi_spec(F(1, 2), F(3, 2), F(2, 5))
        assert fam.cqjacobi_polynomials(5, spec, 49) == fam.cqjacobi_polynomials(5, spec, 9)

    def test_p0_and_degree(self):
        spec = fam.cqjacobi_spec(0, 0, F(1, 2))
        fd = fam.build_family(spec, 6)
        assert fd.polys[0] == SymLaurentPoly([1])
        for n in range(7):
            assert fd.polys[n].degree == n

    def test_AC_sign(self):
        spec = fam.cqjacobi_spec(0, 0, F(1, 2))
        fd = fam.build_family(spec, 4)
        assert fd.A[0] * fd.C[1] > 0

    def test_AC_match_expansion(self):
        spec = fam.cqjacobi_spec(1, 2, F(1, 2))
        fd = fam.build_family(spec, 6)
        for n in range(1, 6):
            A, B, C = fam.recurrence_from_expansion(fd, n)
            assert (A, C) == (fd.A[n], fd.C[n])

    def test_quarter_integer_rejected(self):
        with pytest.raises(fam.InadmissibleParameters):
            fam.cqjacobi_spec(F(1, 4), 0, F(1, 2))


class TestContinuousQUltraspherical:
    def test_c0_c1(self):
        spec = fam.cqultra_spec(F(1, 2), F(1, 2))
        fd = fam.build_family(spec, 4)
        t, q = spec.params["t"], spec.q
        assert fd.polys[0] == SymLaurentPoly([1])
        assert fd.polys[1] == SymLaurentPoly([0, (1 - t) / (1 - q)])

    def test_recurrence_has_no_middle_term(self):
        spec = fam.cqultra_spec(F(1, 3), F(1, 2))
        fd = fam.build_family(spec, 6)
        for n in range(6):
            assert fam.recurrence_from_expansion(fd, n)[1] == 0 == fd.B[n]

    def test_specialization_matches_recurrence(self):
        spec = fam.cqultra_spec(F(2, 3), F(2, 5))
        fd = fam.build_family(spec, 6)
        rebuilt = fam._polys_from_recurrence(fd.A, fd.B, fd.C, 6, "sym")
        for n in range(7):
            assert rebuilt[n] == fd.polys[n]

    def test_u_bounds(self):
        with pytest.raises(fam.InadmissibleParameters):
            fam.cqultra_spec(1, F(1, 2))


class TestBigQJacobi:
    def test_value_at_one(self):
        spec = fam.bigq_spec(F(1, 3), F(1, 4), F(1, 5), F(1, 2))
        for p in fam.bigq_polynomials(8, spec):
            assert p(1) == 1

    def test_p1_two_term_sum(self):
        # oracle: 1 + (q^-1;q)_1 (abq^2;q)_1 (x;q)_1 q / ((aq;q)_1 (-cq;q)_1 (q;q)_1)
        a, b, c, q = F(1, 3), F(1, 4), F(1, 5), F(1, 2)
        spec = fam.bigq_spec(a, b, c, q)
        factor = (1 - 1 / q) * (1 - a * b * q ** 2) * q / ((1 - a * q) * (1 + c * q) * (1 - q))
        oracle = XPoly([1 + factor, -factor])
        assert fam.bigq_polynomials(1, spec)[1] == oracle
        assert oracle == XPoly([F(-3, 44), F(47, 44)])

    def test_gamma_leading_slope(self):
        a, b, c, q = F(1, 3), F(1, 4), F(1, 5), F(1, 2)
        fd = fam.build_family(fam.bigq_spec(a, b, c, q), 6)
        # L(1) = [(b/c-1) - (1/(cq) - 1/(aq))] + [1/(acq^2) - b/c] x
        assert fd.gamma[0] == 1 / (a * c * q * q) - b / c
        for n in range(6):
            assert fd.gamma[n] == q ** (-n) / (a * c * q * q) - b * q ** n / c

    def test_lambda_cumulative(self):
        fd = fam.build_family(fam.bigq_spec(F(1, 3), F(1, 4), F(1, 5), F(1, 2)), 5)
        assert fd.lam[0] == 0
        for n in range(5):
            assert fd.lam[n + 1] == fd.lam[n] + fd.gamma[n]


def test_replace_keeps_a_family_data_with_its_cached_properties(aw_fd):
    lam = list(aw_fd.lam)
    lam[2] += 1
    bad = aw_fd._replace(lam=tuple(lam))
    assert type(bad) is fam.FamilyData and bad.family == fam.AW
    assert bad.lam[2] == aw_fd.lam[2] + 1 and bad.polys == aw_fd.polys
    # the copy builds its own cached data, which agrees with the original's
    top = aw_fd.n_max + 1
    assert bad.x_row(top) == aw_fd.x_row(top) and bad.x_rows == aw_fd.x_rows
    assert bad.gram(top) == aw_fd.gram(top)
    assert "x_rows" in vars(bad) and bad.L is not aw_fd.L
    p = aw_fd.polys[3]
    assert bad.expand(p) == aw_fd.expand(p) == [0, 0, 0, 1]
    assert bad.L(p) == aw_fd.L(p)


def test_x_rows_read_the_polynomials_not_the_recurrence_fields(aw_fd):
    # the C field is A_(n-1) h_n / h_(n-1): rows grown from the fields would
    # make sym-x hold by construction
    bad = aw_fd._replace(A=(0,) * len(aw_fd.A), B=(0,) * len(aw_fd.B), C=(0,) * len(aw_fd.C))
    top = aw_fd.n_max + 1
    assert bad.x_row(top) == aw_fd.x_row(top) and bad.gram(top) == aw_fd.gram(top)


@pytest.mark.parametrize("family", fam.CLI_FAMILIES)
def test_the_basis_change_is_sized_by_what_the_checks_read(family):
    # at --n-max 40 the pairing checks read operator columns up to degree 11
    # and orthogonality expands p_m for m <= 10; the build runs to degree 42
    args = cli.make_parser().parse_args(["verify", "--n-max", "40"])
    spec = fam.sample_specs(family, 1, seed=7, n_max=41)[0]
    fd = fam.build_family(spec, 41)
    for ident in cli.identities_for(family, "all"):
        for rep in cli.IDENTITIES[ident][1](fd, args):
            assert rep.status != "fail", (ident, family)
    assert len(fd.x_rows) == 12 and sorted(fd.recurrence_rows) == list(range(11))
    gram, _ = fd.gram(0)
    assert len(gram) == 12 and all(len(row) == 12 for row in gram)
    with pytest.raises(fam.ExpansionError):
        fd.x_row(fd.n_max + 2)
    assert len(fd.x_rows) == 12


class TestSampler:
    @pytest.mark.parametrize("family", fam.CLI_FAMILIES)
    def test_deterministic_and_admissible(self, family):
        a = fam.sample_specs(family, 6, seed=42, n_max=8)
        b = fam.sample_specs(family, 6, seed=42, n_max=8)
        assert [s.params for s in a] == [s.params for s in b]
        for spec in a:
            fam.validate_spec(spec, 8)

    def test_distinct_seeds_differ(self):
        a = fam.sample_specs(fam.AW, 4, seed=1)
        b = fam.sample_specs(fam.AW, 4, seed=2)
        assert [s.params for s in a] != [s.params for s in b]

    @pytest.mark.parametrize("family", fam.CLI_FAMILIES)
    def test_samples_build_and_hypotheses_hold(self, family):
        for spec in fam.sample_specs(family, 3, seed=7, n_max=6):
            fd = fam.build_family(spec, 6)
            for n in range(6):
                assert fd.gamma[n] != 0
                assert fd.lam[n + 1] != fd.lam[n]
                assert fd.h[n] != 0
                if n >= 1:   # lowering/raising coefficients stay nondegenerate
                    assert fd.gamma[n] + fd.gamma[n - 1] != 0


class TestQpow:
    def test_integral_exponents(self):
        spec = fam.cqjacobi_spec(1, 2, F(1, 2))
        assert spec.qpow(F(1, 2)) == F(1, 4)    # q = 1/16, sqrt q = 1/4
        assert spec.qpow(F(1, 4)) == F(1, 2)

    def test_fractional_rejected(self):
        spec = fam.aw_spec(**AW_SAMPLE)
        with pytest.raises(fam.InadmissibleParameters):
            spec.qpow(F(1, 2))


class TestAdmissibilityBoundaries:
    # At n_max = 5 the ten pair products may not equal q^-k for k <= 10,
    # and abcd may not equal q^-m for 0 <= m <= 12.  q = 1/2, and no other
    # product of these parameters is a power of 2.

    @staticmethod
    def _check(a, b, c, d):
        fam.validate_spec(fam.aw_spec(a, b, c, d, q=F(1, 2)), 5)

    def test_pair_product_bound(self):
        with pytest.raises(fam.InadmissibleParameters, match="product 1024 is an inverse"):
            self._check(F(1024, 3), 3, F(5, 7), F(7, 11))       # ab = q^-10
        self._check(F(2048, 3), 3, F(5, 7), F(7, 11))          # ab = q^-11

    def test_abcd_bounds(self):
        self._check(3, F(1, 5), F(5, 7), F(7, 6))               # abcd = q builds
        with pytest.raises(fam.InadmissibleParameters, match="abcd hits"):
            self._check(3, F(1, 5), F(5, 7), F(7, 3))           # abcd = 1
        with pytest.raises(fam.InadmissibleParameters, match="abcd hits"):
            self._check(3, F(1, 5), F(5, 7), F(7 * 8192, 6))    # abcd = q^-12
        self._check(3, F(1, 5), F(5, 7), F(7 * 16384, 6))      # abcd = q^-13


def test_bigq_ab_bound():
    # ab = 2^13 = q^-13: the 3phi2's leading coefficients and eq40 read
    # 1 - ab q^k up to k = 2 n_max + 2, so n_max = 5 (k <= 12) builds
    spec = fam.bigq_spec(24576, F(1, 3), F(1, 3), F(1, 2))
    fd = fam.build_family(spec, 5)
    assert rel.display_check("eq40")(fd, range(1, 6)).passed
    with pytest.raises(fam.InadmissibleParameters, match="at n=13"):
        fam.validate_spec(spec, 6)


class TestSamplerDraws:
    # sha256 of every parameter point sample_specs draws for these seeds,
    # caps and families.  Changing how admissibility is decided must not
    # change which points are drawn.
    DIGEST = "3f35771bc6766b040258d938ff52d9161b5d4e5ffb88bce95e6767dce3b6d7dc"

    def test_draws_unchanged(self):
        h = hashlib.sha256()
        for family in fam.CLI_FAMILIES:
            for seed in (1, 7, 42, 2027):
                for n_max in (8, 15):
                    for spec in fam.sample_specs(family, 8, seed=seed, n_max=n_max):
                        h.update(f"{spec.family}|{seed}|{n_max}|{spec.base}|"
                                 f"{spec.base_exp}|".encode())
                        h.update(";".join(f"{k}={v}" for k, v in
                                          sorted(spec.params.items())).encode())
                        h.update(b"\n")
        assert h.hexdigest() == self.DIGEST


# -- a naive oracle for the batch builders ---------------------------------
#
# Each degree is summed term by term from the series definitions, with
# Fractions and plain dict/list polynomials, and nothing from qaskey.

def _poch(x, q, n):
    out = F(1)
    for j in range(n):
        out *= 1 - x * q ** j
    return out


def _lmul(f, g):
    """Product of Laurent polynomials in z held as {exponent: coefficient}."""
    out = {}
    for i, u in f.items():
        for j, v in g.items():
            out[i + j] = out.get(i + j, 0) + u * v
    return out


def _pmul(f, g):
    """Product of ordinary polynomials held as coefficient lists."""
    out = [F(0)] * (len(f) + len(g) - 1)
    for i, u in enumerate(f):
        for j, v in enumerate(g):
            out[i + j] += u * v
    return out


def _naive_aw(n, a, b, c, d, q):
    """(ab,ac,ad;q)_n a^-n 4phi3(q^-n, abcd q^(n-1), az, a/z; ab,ac,ad; q, q)
    as {exponent of z: coefficient}."""
    abcd = a * b * c * d
    total, t = {}, {0: F(1)}
    for k in range(n + 1):
        if k:
            x = a * q ** (k - 1)      # (1 - x z)(1 - x / z)
            t = _lmul(t, {-1: -x, 0: 1 + x * x, 1: -x})
        r = (_poch(q ** -n, q, k) * _poch(abcd * q ** (n - 1), q, k) * q ** k
             / (_poch(a * b, q, k) * _poch(a * c, q, k) * _poch(a * d, q, k)
                * _poch(q, q, k)))
        for e, v in t.items():
            total[e] = total.get(e, 0) + r * v
    pref = _poch(a * b, q, n) * _poch(a * c, q, n) * _poch(a * d, q, n) / a ** n
    return {e: pref * v for e, v in total.items()}


def _naive_bigq(n, a, b, c, q):
    """3phi2(q^-n, abq^(n+1), x; aq, -cq; q, q) as ascending x-coefficients."""
    total, t = [F(0)] * (n + 1), [F(1)]
    for k in range(n + 1):
        if k:
            t = _pmul(t, [F(1), -q ** (k - 1)])
        r = (_poch(q ** -n, q, k) * _poch(a * b * q ** (n + 1), q, k) * q ** k
             / (_poch(a * q, q, k) * _poch(-c * q, q, k) * _poch(q, q, k)))
        for i, v in enumerate(t):
            total[i] += r * v
    return total


def _naive_jacobi(n, al, be):
    """(al+1)_n / n! 2F1(-n, n+al+be+1; al+1; (1-x)/2) in ascending x."""
    total, t, r = [F(0)] * (n + 1), [F(1)], F(1)
    for k in range(n + 1):
        if k:
            r *= F(-n + k - 1) * (n + al + be + k) / ((al + k) * k)
            t = _pmul(t, [F(1, 2), F(-1, 2)])
        for i, v in enumerate(t):
            total[i] += r * v
    lead = F(1)
    for j in range(1, n + 1):
        lead *= (al + j) / j
    return [lead * v for v in total]


def _naive_rogers(n, t, q):
    """Continuous q-ultraspherical (Rogers) C_n(x; t | q)
    = sum_k (t;q)_k (t;q)_(n-k) / ((q;q)_k (q;q)_(n-k)) z^(n-2k)."""
    out = {}
    for k in range(n + 1):
        e = n - 2 * k
        out[e] = out.get(e, 0) + (_poch(t, q, k) * _poch(t, q, n - k)
                                  / (_poch(q, q, k) * _poch(q, q, n - k)))
    return out


def _naive_cqjacobi(n, al, be, s, embedding):
    """Continuous q-Jacobi through an Askey-Wilson restriction, q = s^4:
    e49 is the quadruple (q^(al/2+1/4), -q^(be/2+1/4), q^(1/4), -q^(1/4)) at
    base q^(1/2), e09 is (q^(al/2+1/4), q^(al/2+3/4), -q^(be/2+1/4),
    -q^(be/2+3/4)) at base q; either times q^((2al+1)n/4)
    / ((-q^((al+be+1)/2); q^(1/2))_m (q; q)_n) with m = n (e49), 2n (e09)."""
    ea, eb = int(2 * al), int(2 * be)
    q = s ** 4
    if embedding == 49:
        raw = _naive_aw(n, s ** (ea + 1), -s ** (eb + 1), s, -s, s ** 2)
        m = n
    else:
        raw = _naive_aw(n, s ** (ea + 1), s ** (ea + 3), -s ** (eb + 1),
                        -s ** (eb + 3), q)
        m = 2 * n
    scale = s ** ((ea + 1) * n) / (_poch(-s ** (ea + eb + 2), s ** 2, m) * _poch(q, q, n))
    return {e: scale * v for e, v in raw.items()}


def _sym_matches(poly, laurent):
    """A SymLaurentPoly equals a symmetric {exponent: coefficient} dict."""
    n = max(e for e, v in laurent.items() if v)
    assert all(laurent.get(e, 0) == laurent.get(-e, 0) for e in laurent)
    return list(poly.coeffs) == [laurent.get(e, 0) for e in range(n + 1)]


ORACLE_HI = 16


def _seed1(family):
    return fam.sample_specs(family, 1, seed=1, n_max=ORACLE_HI - 1)[0]


@pytest.fixture(scope="module")
def oracle_points():
    """build_family at each family's seed-1 point, polynomials to degree 16."""
    return {f: fam.build_family(_seed1(f), ORACLE_HI - 1) for f in fam.CLI_FAMILIES}


class TestBatchBuildersAgainstOracle:
    def test_askey_wilson(self, oracle_points):
        fd = oracle_points[fam.AW]
        a, b, c, d, q = (fd.spec.params[k] for k in "abcdq")
        for n in range(ORACLE_HI + 1):
            assert _sym_matches(fd.polys[n], _naive_aw(n, a, b, c, d, q)), n

    def test_askey_wilson_closed_forms(self, oracle_points):
        fd = oracle_points[fam.AW]
        a, b, c, d, q = (fd.spec.params[k] for k in "abcdq")
        abcd = a * b * c * d
        k = [2 ** n * _poch(abcd * q ** (n - 1), q, n) for n in range(ORACLE_HI + 1)]
        assert list(fd.k) == k
        for n in range(fd.n_max + 1):
            assert fd.A[n] == k[n] / k[n + 1]
            pochs = F(1)
            for x in (q, a * b, a * c, a * d, b * c, b * d, c * d):
                pochs *= _poch(x, q, n)
            assert fd.h[n] == ((1 - abcd / q) * pochs
                               / ((1 - abcd * q ** (2 * n - 1)) * _poch(abcd / q, q, n)))

    @pytest.mark.parametrize("family", ["continuous-q-jacobi", "continuous-q-jacobi-e09"])
    def test_continuous_q_jacobi(self, oracle_points, family):
        # the family's build (first embedding) and the second embedding's batch
        fd = oracle_points[fam.CQJ]
        al, be, s = fd.spec.params["alpha"], fd.spec.params["beta"], fd.spec.base
        emb = 9 if family.endswith("e09") else 49
        polys = fd.polys if emb == 49 else fam.cqjacobi_polynomials(ORACLE_HI, fd.spec, 9)
        for n in range(ORACLE_HI + 1):
            assert _sym_matches(polys[n], _naive_cqjacobi(n, al, be, s, emb)), n

    def test_continuous_q_ultraspherical(self, oracle_points):
        fd = oracle_points[fam.CQU]
        t, q = fd.spec.params["t"], fd.spec.q
        for n in range(ORACLE_HI + 1):
            assert _sym_matches(fd.polys[n], _naive_rogers(n, t, q)), n

    def test_big_q_jacobi(self, oracle_points):
        fd = oracle_points[fam.BIGQ]
        a, b, c, q = (fd.spec.params[k] for k in "abcq")
        for n in range(ORACLE_HI + 1):
            assert list(fd.polys[n].coeffs) == _naive_bigq(n, a, b, c, q), n

    def test_jacobi(self, oracle_points):
        fd = oracle_points[fam.JACOBI]
        al, be = fd.spec.params["alpha"], fd.spec.params["beta"]
        for n in range(ORACLE_HI + 1):
            assert list(fd.polys[n].coeffs) == _naive_jacobi(n, al, be), n


class TestFamilyTable:
    def test_rows_cover_every_family_name(self):
        assert set(fam.FAMILIES) == {*fam.CLI_FAMILIES, fam.CQJ49}
        assert fam.FAMILIES[fam.CQJ49] is fam.FAMILIES[fam.CQJ]

    @pytest.mark.parametrize("family", fam.CLI_FAMILIES)
    def test_params_rebuild_the_sampled_points(self, family):
        # the row's --params names and constructor give back every point
        # its draw makes; s, where a family takes it, is the base scale
        for seed in range(5):
            for spec in fam.sample_specs(family, 3, seed, n_max=8):
                assert cli.spec_from_params(family, {**spec.params, "s": spec.base}, 8) == spec
