"""Acceptance suite: ten criteria, all exact except the two limit
harnesses, each printing one verdict line (run with -s to see them).

The grid is 20 seeded admissible parameter points per family (session
fixture), degrees n = 1..10, operator matrices compared up to degree
12, residual tables on basis pairs up to degree 10.
"""

import json
from fractions import Fraction as F

import pytest

from qaskey import cli
from qaskey.displays import DISPLAYS, STRUCTURE
from qaskey import families as fam
from qaskey import limits as lim
from qaskey import operator_checks as opc
from qaskey import registry
from qaskey import relations as rel

from conftest import N_MAX

NS = range(1, N_MAX + 1)


def _report(k, text):
    print(f"\nACCEPTANCE {k}: PASS - {text}")


def _all_pass(reports):
    bad = [r for r in reports if not r.passed]
    assert not bad, [(r.identity_id, r.family, r.params) for r in bad]


class TestCriterion1Structure:
    def test_structure_relations_exact(self, grids):
        reports = []
        for fds in grids.values():
            for fd in fds:
                reports.append(rel.check_structure(fd, NS))
                reports.append(rel.check_coefficient_match(fd, NS))
        # eq28's closed form on each family, then eq02
        for key in (*STRUCTURE, "eq02"):
            for family in DISPLAYS[key].families:
                reports.extend(rel.display_check(key)(fd, NS) for fd in grids[family])
        for fd in grids["continuous-q-jacobi"]:
            reports.append(rel.check_structure_tilde(fd, NS))
        _all_pass(reports)
        entries = sum(len(r.entries) for r in reports)
        _report(1, f"structure relations: {entries} exactly-zero residuals "
                   f"across 5 families x 20 samples x n=1..{N_MAX}")

    def test_family_data_integrity(self, grids):
        reports = []
        for fds in grids.values():
            for fd in fds:
                reports.append(opc.check_orthogonality(fd, N_MAX))
                reports.append(opc.check_dual_path(fd, N_MAX))
        _all_pass(reports)
        _report(1, "family-data integrity: orthogonal expansion and "
                   "dual-path reconstruction exact on every sample")


class TestCriterion2LoweringRaising:
    def test_lowering_raising_exact(self, grids):
        reports = []
        for fds in grids.values():
            for fd in fds:
                reports.append(rel.display_check("eq76", "eq31", generic=True)(fd, NS))
                reports.append(rel.display_check("eq77", "eq32", generic=True)(fd, NS))
        for fd in grids[fam.AW]:
            reports.append(rel.display_check("eq76")(fd, NS))
            reports.append(rel.display_check("eq77")(fd, NS))
            reports.append(rel.check_bangerezako(fd, NS))
        _all_pass(reports)
        entries = sum(len(r.entries) for r in reports)
        _report(2, f"lowering/raising + eigen-augmented variants: "
                   f"{entries} exactly-zero residuals")


class TestCriterion3OperatorMatrices:
    DEG = 12

    def test_commutator_d_reconstruction_string_sklyanin(self, grids):
        reports = []
        for family, fds in grids.items():
            for fd in fds:
                reports.append(opc.check_commutator(fd, self.DEG))
                if family != fam.BIGQ:
                    rep = opc.check_d_from_l(fd, self.DEG)
                    reports.append(rep)
                    assert rep.notes["identity_multiple"] == "0"
        for fd in grids[fam.JACOBI]:
            reports.append(opc.check_string_jacobi(fd.spec, self.DEG))
        for e in (F(2), F(3), F(1, 2)):
            reports.append(rel.check_sklyanin(grids[fam.AW][0].spec, e, self.DEG))
        for fd in grids[fam.AW]:
            reports.append(rel.check_sklyanin(fd.spec, F(2), 8))
        _all_pass(reports)
        _report(3, f"[D,X]=L, D-from-L = D + 0*Id, string equation, and "
                   f"Sklyanin quasi-commutation as exact matrices to degree {self.DEG}")


class TestCriterion4Spectral:
    def test_eigenvalues_and_slopes(self, grids):
        reports = []
        for fds in grids.values():
            for fd in fds:
                reports.append(opc.check_eigen(fd, range(0, N_MAX + 1)))
                reports.append(opc.check_gamma_lambda(fd, range(0, N_MAX + 1)))
                reports.append(rel.check_bispectral(fd, range(0, N_MAX + 1)))
        # the stated eigenvalues, asserted directly at every sample
        for fd in grids[fam.AW]:
            a, b, c, d, q = (fd.spec.params[k] for k in "abcdq")
            for n in range(N_MAX + 1):
                assert (1 - 1 / q) / 2 * fd.lam[n] == \
                    (q ** (-n) - 1) * (1 - a * b * c * d * q ** (n - 1))
        for fd in grids[fam.JACOBI]:
            al, be = fd.spec.params["alpha"], fd.spec.params["beta"]
            for n in range(N_MAX + 1):
                assert fd.lam[n] == -F(n) * (n + al + be + 1) / 2
        _all_pass(reports)
        _report(4, "D p_n = lam_n p_n with the stated eigenvalues and "
                   "gamma_n = lam_{n+1} - lam_n, n <= 10, every sample")


class TestCriterion5SkewSymmetry:
    def test_residual_tables(self, grids):
        reports = []
        for fds in grids.values():
            for fd in fds:
                reports.append(opc.check_skew_l(fd, N_MAX))
                reports.append(opc.check_sym_d(fd, N_MAX))
                reports.append(opc.check_sym_x(fd, N_MAX))
        _all_pass(reports)
        # the non-skew operator must be *detected* as non-skew on every sample
        for fd in grids[fam.CQU]:
            rep = rel.check_cqultra_nonskew(fd, 8)
            assert rep.passed and rep.notes["skew_residual"] != "0"
        _report(5, "skew(L) = 0, sym(D) = sym(X) = 0 on basis pairs to degree "
                   "10 on every sample; the eq53 operator's skew residual is "
                   "confirmed nonzero")


class TestCriterion6UltrasphericalWeb:
    def test_web_and_combination(self, grids):
        reports = []
        for fd in grids[fam.CQU]:
            for which in ("eq51", "eq52", "eq53", "eq55", "qdiff2"):
                reports.append(rel.check_cqultra_relation(fd, NS, which))
            combo = rel.check_cqultra_combination(fd, NS)
            reports.append(combo)
            # constants fixed by computation: (sqrt(q)-1)/2 and -(sqrt(q)+1)/2;
            # the (q-1)/2, (q+1)/2 pairing leaves a nonzero residual and is
            # recorded as failing (see the decisions ledger)
            p = fd.spec.base ** 2
            assert combo.notes["u"] == str((p - 1) / 2)
            assert combo.notes["v"] == str(-(p + 1) / 2)
            assert combo.notes["printed_constants_fail"]
        _all_pass(reports)
        _report(6, "eq51-eq55 all exactly zero; eq54 = (sqrt(q)-1)/2 * eq55 "
                   "- (sqrt(q)+1)/2 * eq53 holds identically (derived "
                   "constants; the (q-1)/2,(q+1)/2 pairing is confirmed false)")


class TestCriterion7BigQReduction:
    def test_derive_and_chain(self, grids):
        reports = []
        for fd in grids[fam.AW]:
            a, b, c, d, q = (fd.spec.params[k] for k in "abcdq")
            ref = [(q ** (-n) - 1) * (1 - a * b * c * d * q ** (n - 1))
                   for n in range(fd.n_max + 1)]
            reports.append(rel.check_qdiff_recovery(fd, ref))
        for fd in grids[fam.BIGQ]:
            qd = rel.derive_second_order_qdiff(fd)
            assert qd.lambdas[0] == 0
            r42, r41 = rel.reduce_bigq_chain(fd, NS)
            reports.extend([r42, r41])
        _all_pass(reports)
        _report(7, "second-order q-difference equation recovered (eigenvalues "
                   "proportional to the stated ones for the four-parameter "
                   "family) and the eq40 -> eq42 -> eq41 chain is exactly zero "
                   "for n <= 10")


class TestCriterion8Limits:
    def test_eps_path_o_eps(self):
        for n in (1, 2, 3):
            rows = lim.limit_aw_to_bigq(F(1, 3), F(1, 4), F(1, 5), F(1, 2), n,
                                        eps_ks=range(4, 11))
            ratios = [r.ratio for r in rows if r.ratio is not None]
            assert len(ratios) == 6
            assert all(r >= 2.0 for r in ratios), (n, ratios)

    def test_q_to_one_path(self):
        worst = None
        for alpha in (0, 1, 2):
            for beta in (0, 1, 2):
                for n in range(1, 6):
                    rows = lim.limit_cqjacobi_to_jacobi(alpha, beta, n,
                                                        k_range=range(3, 11))
                    for r in rows:
                        if r.ratio is not None:
                            assert r.ratio >= 1.5, (alpha, beta, n, r)
                            worst = min(worst or r.ratio, r.ratio)
        _report(8, f"eps path: halving eps at least halves (observed: quarters) "
                   f"the deviation over 6 steps; q->1 path: per-step decay "
                   f"factor >= 1.5 (worst {worst:.3f}) for n <= 5, "
                   f"alpha,beta in {{0,1,2}}")


class TestCriterion9NegativeControls:
    def test_every_checker_has_a_firing_mutation(self, grids):
        # one control per (key, family, slot) of the registry, on the first
        # sample of every family the key covers, over the key's own domain
        # at small flags
        args = cli.make_parser().parse_args(["verify", "--n-max", "2", "--degree-cap", "4"])
        fired = 0
        for key, (families, check) in cli.IDENTITIES.items():
            for family in families:
                fd, degrees = registry.DOMAINS[check.domain](grids[family][0], args)
                for slot in check.slots:
                    reports = [r for r in check.run(fd, degrees, perturb=slot)
                               if r.identity_id == key]
                    assert reports, (key, family, slot)
                    for rep in reports:
                        # informational reports never fail: the mutation must
                        # surface in the recorded residuals
                        assert not all(e.zero for e in rep.entries), (key, family, slot)
                    fired += 1
        assert fired == 117
        _report(9, f"negative controls: {fired} single-coefficient +1 "
                   f"mutations each produce a nonzero residual")


class TestCriterion10Determinism:
    def test_byte_identical_reports(self, tmp_path):
        argv = ["verify", "--family", "askey-wilson", "--identity", "eq28",
                "--samples", "6", "--seed", "77", "--n-max", "6",
                "--no-timestamp"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(argv + ["--report", str(p1)]) == 0
        assert cli.main(argv + ["--report", str(p2)]) == 0
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        json.loads(b1)   # well-formed
        _report(10, "identical seed/config produce byte-identical reports "
                    "(timestamp suppressed)")
