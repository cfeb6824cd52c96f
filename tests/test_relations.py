from fractions import Fraction as F

import pytest

from qaskey import displays
from qaskey import families as fam
from qaskey import operator_checks as opc
from qaskey import relations as rel
from qaskey.laurent import XPoly


AW = fam.aw_spec(F(1, 3), F(1, 4), F(1, 5), F(-1, 6), q=F(1, 2))
JAC0 = fam.jacobi_spec(0, 0)
JAC = fam.jacobi_spec(1, 2)
CQJ = fam.cqjacobi_spec(1, 2, F(1, 2))
CQU = fam.cqultra_spec(F(1, 2), F(1, 2))
BIGQ = fam.bigq_spec(F(1, 3), F(1, 4), F(1, 5), F(1, 2))

NS = range(1, 7)


@pytest.fixture(scope="module")
def fds():
    return {s.family: fam.build_family(s, 8) for s in (AW, JAC, CQJ, CQU, BIGQ)}


@pytest.fixture(scope="module")
def leg_fd():
    return fam.build_family(JAC0, 8)


def test_eq59_display_is_not_the_family_data(monkeypatch):
    # eq59's closed-form A_n is display data only: the family derives its
    # own from the Askey-Wilson build, so a doubled display A_n must fail
    # coeff-match and eq59, while eq28, which reads the data alone, holds
    row = displays.DISPLAYS["eq59"]

    def doubled(spec, n):       # gamma_n A_n with A_n doubled
        plus, minus = row.closed(spec, n)
        return 2 * plus, minus

    monkeypatch.setitem(displays.DISPLAYS, "eq59", row._replace(closed=doubled))
    fd = fam.build_family(fam.sample_specs(fam.CQJ, 1, seed=1, n_max=8)[0], 8)
    assert not rel.check_coefficient_match(fd, NS).passed
    assert not rel.display_check("eq59")(fd, NS).passed
    assert rel.check_structure(fd, NS).passed


def _cqu_relation(which):
    return lambda fd, ns: rel.display_check(which)(fd, ns)


def explicit(fd, ns, perturb=None):
    """eq28's closed form on fd's family: its one structure row."""
    key = next(k for k, _ in displays.rows_for(fd.family) if k in displays.STRUCTURE)
    return rel.display_check(key)(fd, ns, perturb)


LOWERING = rel.display_check("eq76", "eq31", generic=True)
RAISING = rel.display_check("eq77", "eq32", generic=True)


#: every structure, lowering and raising checker, with the one family it
#: is specific to (None: all five)
N0_CHECKS = {
    "eq28": (rel.check_structure, None),
    "explicit": (explicit, None),
    "eq31": (LOWERING, None),
    "eq32": (RAISING, None),
    "eq59t": (rel.check_structure_tilde, fam.CQJ49),
    "eq76": (rel.display_check("eq76"), fam.AW),
    "eq77": (rel.display_check("eq77"), fam.AW),
    "bangerezako": (rel.check_bangerezako, fam.AW),
    "eq02": (rel.display_check("eq02"), fam.JACOBI),
    **{w: (_cqu_relation(w), fam.CQU) for w in ("eq51", "eq52", "eq53", "eq55", "qdiff2")},
    "combo54": (rel.check_cqultra_combination, fam.CQU),
    "eq42": (rel.check_eq42, fam.BIGQ),
    "eq41": (rel.check_eq41, fam.BIGQ),
}
FAMILIES = (fam.AW, fam.JACOBI, fam.CQJ49, fam.CQU, fam.BIGQ)


@pytest.mark.parametrize("key,family", [(k, f) for k, (_, only) in N0_CHECKS.items()
                                        for f in FAMILIES if only in (None, f)])
def test_degree_zero_reads_no_p_minus_1(first_points, key, family):
    # p_{-1} is the zero polynomial (C_0 = 0), never polys[-1], the top one
    check, _ = N0_CHECKS[key]
    assert check(first_points[family], [0]).passed


@pytest.mark.parametrize("family", (fam.AW, fam.JACOBI, fam.CQU))
def test_coefficient_match_rejects_degree_zero(first_points, family):
    # at n = 0 the minus comparison would read gamma[-1], the top slope
    fd = first_points[family]
    with pytest.raises(ValueError, match="n >= 1"):
        rel.check_coefficient_match(fd, [0])
    assert rel.check_coefficient_match(fd, [1]).passed


class TestPointOperators:
    def test_checks_share_the_points_operators(self, monkeypatch):
        from qaskey import operators as ops
        built = []
        for name in ("family_L", "family_D"):
            real = getattr(ops, name)
            monkeypatch.setattr(ops, name, lambda *a, _r=real, _n=name: built.append(_n) or _r(*a))
        fd = fam.build_family(AW, 6)
        applied = {"L": [], "D": []}
        for key in applied:
            op = getattr(fd, key)
            op.action = lambda f, _a=op.action, _k=key: applied[_k].append(f) or _a(f)
        ns = range(0, 5)
        for check in (rel.check_structure, explicit, LOWERING, RAISING,
                      rel.display_check("eq76"), rel.display_check("eq77"),
                      rel.check_bangerezako, rel.check_bispectral, opc.check_eigen):
            assert check(fd, ns).passed, check
        for check in (opc.check_commutator, opc.check_d_from_l, opc.check_skew_l,
                      opc.check_sym_d):
            assert check(fd, 4).passed, check.__name__
        assert built == ["family_L", "family_D"]
        for key, inputs in applied.items():
            assert all(inputs.count(fd.polys[n]) == 1 for n in ns), key
            assert len(set(inputs)) == len(inputs), key


class TestStructure:
    def test_generic_all_families(self, fds):
        for fd in fds.values():
            rep = rel.check_structure(fd, NS)
            assert rep.passed, fd.family

    def test_explicit_all_families(self, fds):
        for fd in fds.values():
            rep = explicit(fd, NS)
            assert rep.passed, fd.family

    def test_explicit_ids(self, fds):
        ids = {explicit(fd, [1]).identity_id for fd in fds.values()}
        assert ids == {"eq18", "eq26", "eq59", "eq54", "eq40"}

    def test_tilde_structure(self, fds):
        rep = rel.check_structure_tilde(fds[fam.CQJ49], NS)
        assert rep.passed

    def test_legendre_n1_frozen(self, leg_fd):
        # L P_1 = 1 - 2x^2 = -(4/3) P_2 + (1/3) P_0
        from qaskey import operators as ops
        L = ops.jacobi_L(JAC0)
        got = L(leg_fd.polys[1])
        assert got == XPoly([1, 0, -2])
        assert got == leg_fd.polys[2].scale(F(-4, 3)) + leg_fd.polys[0].scale(F(1, 3))
        assert rel.display_check("eq26")(leg_fd, [1]).passed

    def test_coefficient_match(self, fds):
        for fd in fds.values():
            assert rel.check_coefficient_match(fd, NS).passed, fd.family


class TestLoweringRaising:
    def test_generic(self, fds):
        for fd in fds.values():
            assert LOWERING(fd, NS).passed, fd.family
            assert RAISING(fd, NS).passed, fd.family

    def test_aw_explicit(self, fds):
        assert rel.display_check("eq76")(fds[fam.AW], NS).passed
        assert rel.display_check("eq77")(fds[fam.AW], NS).passed

    def test_bangerezako(self, fds):
        assert rel.check_bangerezako(fds[fam.AW], NS).passed

    def test_bangerezako_negative_control(self, fds):
        rep = rel.check_bangerezako(fds[fam.AW], [2], perturb="lambda")
        assert not rep.passed


class TestBispectral:
    def test_all_families(self, fds):
        for fd in fds.values():
            assert rel.check_bispectral(fd, range(0, 7)).passed, fd.family

    def test_boundary_n0(self, fds):
        rep = rel.check_bispectral(fds[fam.AW], [0])
        assert rep.passed

    def test_q_commutator_informational(self):
        spec = fam.aw_spec(F(1, 3), F(1, 4), F(1, 5), F(-1, 6), s=F(1, 2), m=2)
        fd = fam.build_family(spec, 6)
        rep = rel.residual_q_bispectral(fd, range(0, 5))
        assert rep.status == "info"
        assert rep.notes["all_zero"]

    def test_q_commutator_mutation_recorded(self):
        spec = fam.aw_spec(F(1, 3), F(1, 4), F(1, 5), F(-1, 6), s=F(1, 2), m=2)
        fd = fam.build_family(spec, 6)
        rep = rel.residual_q_bispectral(fd, [2], perturb="lambda")
        assert rep.status == "info"
        assert not all(e.zero for e in rep.entries)


class TestSklyanin:
    def test_three_shift_values(self, fds):
        for e in (F(2), F(3), F(1, 2)):
            assert rel.check_sklyanin(fds[fam.AW], 8, e=e).passed

    def test_e_one_trivial(self, fds):
        assert rel.check_sklyanin(fds[fam.AW], 6, e=F(1)).passed

    def test_zero_shift_rejected(self, fds):
        with pytest.raises(ValueError):
            rel.check_sklyanin(fds[fam.AW], 4, e=F(0))


class TestCqUltraWeb:
    @pytest.mark.parametrize("which", ["eq51", "eq52", "eq53", "eq55", "qdiff2"])
    def test_relations(self, fds, which):
        assert rel.display_check(which)(fds[fam.CQU], NS).passed

    def test_eq52_coefficient_at_n0(self, fds):
        fd = fds[fam.CQU]
        q = fd.spec.q
        # the raising coefficient at n = 0 is 1 - q, consistent with C_1
        rep = rel.display_check("eq52")(fd, [0, 1])
        assert rep.passed
        assert (1 - q) * fd.A[0] * 2 == (1 - q ** 1) / (1 - fd.spec.params["t"] * q ** 0) * (1 - q)

    def test_combination_exact_constants(self, fds):
        rep = rel.check_cqultra_combination(fds[fam.CQU], NS)
        assert rep.passed
        s2 = fds[fam.CQU].spec.base ** 2
        assert rep.notes["u"] == str((s2 - 1) / 2)
        assert rep.notes["v"] == str(-(s2 + 1) / 2)
        assert rep.notes["printed_constants_fail"]

    def test_combination_mutation(self, fds):
        assert not rel.check_cqultra_combination(fds[fam.CQU], [2], perturb="u").passed

    def test_nonskew_confirmed(self, fds):
        rep = rel.check_cqultra_nonskew(fds[fam.CQU], 6)
        assert rep.passed
        assert rep.notes["skew_residual"] != "0"

    def test_nonskew_mutation(self, fds):
        assert not rel.check_cqultra_nonskew(fds[fam.CQU], 6, perturb="op").passed


class TestSpectral:
    def test_eigen(self, fds):
        for fd in fds.values():
            assert opc.check_eigen(fd, range(0, 7)).passed, fd.family

    def test_gamma_lambda(self, fds):
        for fd in fds.values():
            assert opc.check_gamma_lambda(fd, range(0, 7)).passed, fd.family

    def test_commutator_matrix(self, fds):
        for fd in fds.values():
            assert opc.check_commutator(fd, 8).passed, fd.family

    def test_d_from_l(self, fds):
        for fd in fds.values():
            if fd.family == fam.BIGQ:
                continue
            rep = opc.check_d_from_l(fd, 8)
            assert rep.passed, fd.family
            assert rep.notes["identity_multiple"] == "0"

    def test_string(self, fds, leg_fd):
        assert opc.check_string_jacobi(fds[fam.JACOBI], 8).passed
        assert opc.check_string_jacobi(leg_fd, 8).passed

    def test_residual_tables(self, fds):
        for fd in fds.values():
            assert opc.check_skew_l(fd, 6).passed, fd.family
            assert opc.check_sym_d(fd, 6).passed, fd.family
            assert opc.check_sym_x(fd, 6).passed, fd.family

    def test_orthogonality_and_dual(self, fds):
        for fd in fds.values():
            assert opc.check_orthogonality(fd, 6).passed, fd.family
            assert opc.check_dual_path(fd, 6).passed, fd.family


@pytest.mark.parametrize("alpha,beta", [(0, 0), (F(-1, 2), F(-1, 2)), (1, 2), (F(1, 2), 0)])
@pytest.mark.parametrize("check", [rel.display_check("eq02"), rel.display_check("eq26")],
                         ids=["eq02", "eq26"])
def test_jacobi_closed_forms_at_degree_zero(check, alpha, beta):
    # Legendre (al+be = 0) and Chebyshev (al+be = -1) put a zero in the
    # denominators of the uncancelled n = 0 closed forms
    fd = fam.build_family(fam.jacobi_spec(F(alpha), F(beta)), 3)
    assert check(fd, [0]).passed


class TestClassicJacobi:
    def test_residuals(self, fds, leg_fd):
        assert rel.display_check("eq02")(fds[fam.JACOBI], NS).passed
        assert rel.display_check("eq02")(leg_fd, NS).passed

    def test_legendre_frozen(self, leg_fd):
        # (1-x^2) P_1' = 1 - x^2 = -(2/3) P_2 + (2/3) P_0
        lhs = XPoly([1, 0, -1]) * leg_fd.polys[1].derivative()
        assert lhs == leg_fd.polys[2].scale(F(-2, 3)) + leg_fd.polys[0].scale(F(2, 3))

    def test_middle_vanishes_when_symmetric(self):
        fd = fam.build_family(fam.jacobi_spec(F(1, 2), F(1, 2)), 6)
        rep = rel.display_check("eq02")(fd, NS)
        assert rep.passed
        # alpha = beta kills the middle closed-form coefficient
        al = be = F(1, 2)
        n = 3
        assert 2 * n * (n + al + be + 1) * (al - be) == 0


class TestDeriveQDiff:
    def test_aw_recovery(self, fds):
        fd = fds[fam.AW]
        a, b, c, d, q = (AW.params[k] for k in "abcdq")
        ref = [(q ** (-n) - 1) * (1 - a * b * c * d * q ** (n - 1))
               for n in range(fd.n_max + 1)]
        assert rel.check_qdiff_recovery(fd._replace(lam=tuple(ref)), range(fd.n_max + 1)).passed

    def test_aw_recovery_mutation(self, fds):
        fd = fds[fam.AW]
        a, b, c, d, q = (AW.params[k] for k in "abcdq")
        ref = [(q ** (-n) - 1) * (1 - a * b * c * d * q ** (n - 1))
               for n in range(fd.n_max + 1)]
        assert not rel.check_qdiff_recovery(fd._replace(lam=tuple(ref)), range(fd.n_max + 1),
                                            perturb="reference").passed

    def test_bigq_succeeds(self, fds):
        qd = rel.derive_second_order_qdiff(fds[fam.BIGQ])
        assert qd.lambdas[0] == 0 and qd.lambdas[1] == 1
        assert not qd.E.is_zero
        # eigen weight vanishes at the origin, as the chain requires
        assert qd.E.coeff(0) == 0

    def test_n0_row_constraint(self, fds):
        # A + B + C = 0 identically encodes lambda_0 = 0 on p_0 = 1
        qd = rel.derive_second_order_qdiff(fds[fam.BIGQ])
        assert (qd.A + qd.B + qd.C).is_zero


class TestBigQChain:
    def test_chain_residuals(self, fds):
        r42, r41 = rel.check_eq42(fds[fam.BIGQ], NS), rel.check_eq41(fds[fam.BIGQ], NS)
        assert r42.passed and r41.passed

    def test_boundary(self, fds):
        r42, r41 = rel.check_eq42(fds[fam.BIGQ], [0]), rel.check_eq41(fds[fam.BIGQ], [0])
        assert r42.passed and r41.passed

    def test_mutations(self, fds):
        r41 = rel.check_eq41(fds[fam.BIGQ], [2], perturb="a-tilde")
        assert not r41.passed
        r42 = rel.check_eq42(fds[fam.BIGQ], [2], perturb="alpha")
        assert not r42.passed


class TestNegativeControls:
    """Every checker must flip to fail when one coefficient moves by +1."""

    def test_structural_checkers(self, fds):
        aw, cqu, bigq = fds[fam.AW], fds[fam.CQU], fds[fam.BIGQ]
        jac = fds[fam.JACOBI]
        cases = [
            (rel.check_structure, aw, "plus"), (rel.check_structure, aw, "minus"),
            (rel.display_check("eq18"), aw, "plus"),
            (rel.display_check("eq40"), bigq, "minus"),
            (rel.check_structure_tilde, fds[fam.CQJ49], "plus"),
            (LOWERING, jac, "rhs"), (LOWERING, jac, "slope"),
            (RAISING, jac, "rhs"),
            (rel.display_check("eq76"), aw, "slope"), (rel.display_check("eq76"), aw, "rhs"),
            (rel.display_check("eq77"), aw, "rhs"),
            (rel.check_bispectral, aw, "lambda"),
            (opc.check_eigen, cqu, "lambda"),
            (opc.check_gamma_lambda, bigq, "gamma"),
            (rel.display_check("eq02"), jac, "middle"),
            (rel.check_coefficient_match, aw, "plus"),
        ]
        for fn, fd, slot in cases:
            rep = fn(fd, [2], perturb=slot)
            assert not rep.passed, (rep.identity_id, slot)

    def test_cqu_relations(self, fds):
        for which in ("eq51", "eq52", "eq53", "eq55", "qdiff2"):
            rep = rel.display_check(which)(fds[fam.CQU], [2], perturb="rhs")
            assert not rep.passed, which

    def test_operator_checkers(self, fds):
        assert not opc.check_commutator(fds[fam.AW], 4, perturb="normalization").passed
        assert not opc.check_d_from_l(fds[fam.AW], 4, perturb="normalization").passed
        assert not opc.check_string_jacobi(fds[fam.JACOBI], 4, perturb="shape").passed
        assert not rel.check_sklyanin(fds[fam.AW], 4, perturb="shift", e=F(2)).passed
        aw = fds[fam.AW]
        assert not opc.check_skew_l(aw, 4, perturb="op").passed
        assert not opc.check_sym_d(aw, 4, perturb="op").passed
        assert not opc.check_sym_x(aw, 4, perturb="op").passed
        assert not opc.check_orthogonality(aw, 4, perturb="h").passed
        assert not opc.check_dual_path(aw, 4, perturb="A0").passed
