"""The integer kernels of ``qaskey`` against naive Fraction loops.

Every reference below works coefficient by coefficient in ``Fraction``
arithmetic, as the engine did before its ring operations, dilations and
nullspace solver moved to integer numerators over a common denominator,
and as the family-basis expansions did before they moved to one integer
table per point; the two must agree exactly, including on which
divisions leave a remainder.  The last tests pin the integer normal form every polynomial
is stored in, and that no other module reaches into it.
"""

import ast
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

import qaskey
from qaskey import families as fam, qdiff, relations as rel
from qaskey.inner_product import _pairing_rows, skew_symmetry_residual, symmetry_residual
from qaskey.laurent import (SPACES, LaurentPoly, NonzeroRemainder, SymLaurentPoly, XPoly,
                            sym_to_x, x_to_sym)
from qaskey.operators import PolyOperator, cqultra_nonskew_op, op_x


# -- naive references -----------------------------------------------------

def _terms(f):
    """exponent -> coefficient of a LaurentPoly or XPoly."""
    lo = f.lo if isinstance(f, LaurentPoly) else 0
    return {lo + i: c for i, c in enumerate(f.coeffs)}


def _from_terms(d, cls):
    if cls is XPoly:
        return XPoly([d.get(k, F(0)) for k in range(max(d, default=-1) + 1)])
    if not d:
        return LaurentPoly()
    return LaurentPoly(min(d), [d.get(k, F(0)) for k in range(min(d), max(d) + 1)])


def ref_add(f, g, sign=1):
    d = _terms(f)
    for k, c in _terms(g).items():
        d[k] = d.get(k, F(0)) + sign * c
    return _from_terms(d, type(f))


def ref_mul(f, g):
    d = {}
    for i, a in _terms(f).items():
        for j, b in _terms(g).items():
            d[i + j] = d.get(i + j, F(0)) + a * b
    return _from_terms(d, type(f))


def ref_sym_add(f, g, sign=1):
    n = max(len(f.coeffs), len(g.coeffs))
    return SymLaurentPoly([f.coeff(k) + sign * g.coeff(k) for k in range(n)])


def ref_sym_mul(f, g):
    if f.is_zero or g.is_zero:
        return SymLaurentPoly()
    return ref_mul(f.to_laurent(), g.to_laurent()).to_sym()


def ref_divide(f, g):
    """Long division over the rationals, one Fraction step at a time."""
    if f.is_zero:
        return LaurentPoly()
    rem, div = list(f.coeffs), g.coeffs
    dn = len(div) - 1
    if len(rem) - 1 < dn:
        raise NonzeroRemainder
    quot = [F(0)] * (len(rem) - dn)
    for top in range(len(rem) - 1, dn - 1, -1):
        c = rem[top] / div[dn]
        quot[top - dn] = c
        for j in range(dn + 1):
            rem[top - dn + j] -= c * div[j]
    if any(rem):
        raise NonzeroRemainder
    return LaurentPoly(f.lo - g.lo, quot)


def ref_nullspace(rows, width):
    """Gauss-Jordan over Fraction rows: pivot on the first nonzero entry
    of each column, scale the pivot row to 1, clear the column elsewhere."""
    mat = [[F(v) for v in r] for r in rows]
    pivots = []
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [v / mat[r][col] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    basis = []
    for fc in range(width):
        if fc not in pivots:
            vec = [F(0)] * width
            vec[fc] = F(1)
            for ri, pc in enumerate(pivots):
                vec[pc] = -mat[ri][fc]
            basis.append(vec)
    return basis


# -- strategies -------------------------------------------------------------

# ints and Fractions, small and large, zero included; a list may start or
# end with zeros, so constructors normalize it
_COEFF = st.one_of(
    st.integers(-12, 12),
    st.builds(F, st.integers(-60, 60), st.integers(1, 36)),
    st.builds(F, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 12)),
)
_COEFFS = st.lists(_COEFF, max_size=9)
_LAURENT = st.builds(LaurentPoly, st.integers(-7, 7), _COEFFS)
_SYM = st.builds(SymLaurentPoly, _COEFFS)
_XPOLY = st.builds(XPoly, _COEFFS)
# a leading coefficient whose numerator is neither 1 nor -1
_LEAD = st.builds(F, st.integers(2, 40).flatmap(lambda n: st.sampled_from((n, -n))),
                  st.integers(1, 30)).filter(lambda v: abs(v.numerator) != 1)


@st.composite
def _divisor(draw):
    """At least two terms, the top one with a numerator other than +-1."""
    lo = draw(st.integers(-4, 4))
    body = [draw(_COEFF.filter(bool))] + draw(st.lists(_COEFF, max_size=4))
    return LaurentPoly(lo, body + [draw(_LEAD)])


# a rational r other than 0, negative and non-unit ones included
_RATIO = st.builds(F, st.integers(-40, 40).filter(bool), st.integers(1, 30))


@st.composite
def _system(draw):
    """A linear system whose rows repeat, vanish or are multiples of others."""
    width = draw(st.integers(1, 7))
    row = st.lists(_COEFF, min_size=width, max_size=width)
    rows = draw(st.lists(row, max_size=9))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "copy", "multiple")))
        at = draw(st.integers(0, len(rows)))
        if kind == "zero" or not rows:
            rows.insert(at, [0] * width)
            continue
        src = draw(st.sampled_from(rows))
        k = 1 if kind == "copy" else draw(_RATIO)
        rows.insert(at, [F(v) * k for v in src])
    return rows, width


class TestRingOperations:
    @given(_LAURENT, _LAURENT)
    def test_laurent(self, f, g):
        assert f + g == ref_add(f, g)
        assert f - g == ref_add(f, g, -1)
        assert f * g == ref_mul(f, g)

    @given(_XPOLY, _XPOLY)
    def test_xpoly(self, f, g):
        assert f + g == ref_add(f, g)
        assert f - g == ref_add(f, g, -1)
        assert f * g == ref_mul(f, g)

    @given(_SYM, _SYM)
    def test_sym(self, f, g):
        assert f + g == ref_sym_add(f, g)
        assert f - g == ref_sym_add(f, g, -1)
        assert f * g == ref_sym_mul(f, g)

    @given(_SYM, _SYM)
    def test_sym_product_is_the_laurent_round_trip(self, f, g):
        prod = f * g
        assert prod.to_laurent() == f.to_laurent() * g.to_laurent()
        assert all(isinstance(c, F) for c in prod.coeffs)

    def test_operands_of_unequal_length(self):
        f = SymLaurentPoly([F(1, 3), F(-2, 5), 0, F(7, 4)])
        g = SymLaurentPoly([F(5, 6), F(1, 9)])
        for a, b in ((f, g), (g, f)):
            assert a * b == ref_sym_mul(a, b)


class TestDivision:
    @given(_LAURENT, _divisor())
    def test_divides_its_product(self, h, g):
        assert (g * h).divide_exact(g) == h

    @given(_LAURENT, _divisor())
    def test_agrees_with_long_division(self, f, g):
        try:
            want = ref_divide(f, g)
        except NonzeroRemainder:
            with pytest.raises(NonzeroRemainder):
                f.divide_exact(g)
        else:
            assert f.divide_exact(g) == want

    @given(_LAURENT, _divisor())
    def test_remainder_raises(self, h, g):
        # g is no monomial, so it does not divide g*h + z^m
        assume(not h.is_zero)
        f = g * h + LaurentPoly((g * h).lo, (1,))
        with pytest.raises(NonzeroRemainder):
            f.divide_exact(g)

    @given(_XPOLY, _divisor())
    def test_xpoly_divides_its_product(self, h, g):
        gx = XPoly(g.coeffs)
        assert (gx * h).divide_exact(gx) == h


class TestDilation:
    @given(_LAURENT, _RATIO)
    def test_dilate(self, f, r):
        want = LaurentPoly(f.lo, [c * r ** (f.lo + i) for i, c in enumerate(f.coeffs)])
        assert f.dilate(r) == want

    @given(_XPOLY, st.one_of(_RATIO, st.just(0), st.just(F(0))))
    def test_compose_scale(self, f, r):
        r = F(r)
        assert f.compose_scale(r) == XPoly([c * r ** i for i, c in enumerate(f.coeffs)])

    def test_edge_cases(self):
        f = LaurentPoly(-3, [F(2, 3), 0, F(-5, 7), 4])
        assert f.dilate(-1) == LaurentPoly(-3, [F(-2, 3), 0, F(5, 7), 4])
        assert f.dilate(1) == f
        assert LaurentPoly().dilate(F(3, 5)) == LaurentPoly()
        assert XPoly().compose_scale(F(3, 5)) == XPoly()
        assert XPoly([F(1, 2), 3, 4]).compose_scale(0) == XPoly([F(1, 2)])
        for g in (f, LaurentPoly()):
            with pytest.raises(ZeroDivisionError):
                g.dilate(0)


class TestNullspace:
    @given(_system())
    def test_matches_fraction_elimination(self, system):
        rows, width = system
        assert qdiff._nullspace(rows, width) == ref_nullspace(rows, width)

    def test_shapes(self):
        big = 10 ** 40 + 7
        cases = [
            ([], 3),                                        # no equations
            ([[0, 0, 0], [0, 0, 0]], 3),                    # only zero rows
            ([[1, 2], [3, 4]], 2),                          # full rank
            ([[2, 4, 6], [F(1, 3), F(2, 3), 1], [0, 0, 5]], 3),   # multiples
            ([[1, -1], [2, -2], [-big, big], [F(3, 7), F(-3, 7)], [0, 0]], 2),
            ([[0, -big, F(1, big)], [big, 0, -1], [F(-1, 2), F(1, 3), 0]], 3),
        ]
        for rows, width in cases:
            assert qdiff._nullspace(rows, width) == ref_nullspace(rows, width)

    def test_real_ansatz_systems(self, first_points, monkeypatch):
        systems = []
        real = qdiff._nullspace
        monkeypatch.setattr(qdiff, "_nullspace",
                            lambda rows, width: systems.append((rows, width)) or real(rows, width))
        for family in (fam.AW, fam.BIGQ):
            qdiff.derive_second_order_qdiff(first_points[family])
        assert len(systems) >= 2
        for rows, width in systems:
            assert real(rows, width) == ref_nullspace(rows, width)

    def test_sqrt_q_pair_point_derives_its_eigenvalues(self):
        # b and d are -sqrt(q) and sqrt(q): degrees 4 and 5 leave several
        # equations, and a lower ansatz degree gives the one whose
        # eigenvalues are those of the family
        spec = fam.aw_spec(F(-4, 5), F(-1, 2), F(-1, 2), F(1, 2), F(1, 4))
        fd = fam.build_family(spec, 6)
        lam = qdiff.derive_second_order_qdiff(fd).lambdas
        assert len(lam) == fd.n_max + 1
        assert all(lam[n] * fd.lam[1] == fd.lam[n] for n in range(fd.n_max + 1))


# -- the expansion table, the Gram pairing and the recurrence rows -----------

def ref_expand(fd, f):
    """Coefficients of f in the family basis by leading-term elimination,
    one Fraction subtraction and product per entry."""
    fx = f.to_x()
    if fx.is_zero:
        return []
    rem = list(fx.coeffs)
    out = [F(0)] * len(rem)
    for m in range(len(rem) - 1, -1, -1):
        p = fd.polys_x[m].coeffs
        c = out[m] = rem[m] / p[m]
        for i, v in enumerate(p):
            rem[i] -= c * v
    assert not any(rem)
    return out


@pytest.fixture(scope="module")
def degree16():
    """The first seed-1 point of each family, built to degree 16 (n_max 15)."""
    specs = [fam.sample_specs(f, 1, seed=1, n_max=15)[0] for f in fam.CLI_FAMILIES]
    return {s.family: fam.build_family(s, 15) for s in specs}


def _random_poly(rng, space, deg):
    coeffs = [F(rng.randrange(-40, 41), rng.randrange(1, 30)) for _ in range(deg)]
    return SPACES[space](coeffs + [F(rng.randrange(1, 9), rng.randrange(1, 9))])


def test_expand_is_the_naive_elimination(degree16):
    import random
    rng = random.Random(16)
    assert len(degree16) == 5
    for fd in degree16.values():
        top = fd.n_max + 1
        for deg in (0, 1, 2, 7, top, top):
            f = _random_poly(rng, fd.space, deg)
            got = fd.expand(f)
            assert got == ref_expand(fd, f), (fd.family, deg)
            assert len(got) == deg + 1 and all(type(c) is F for c in got)
        for m, p in enumerate(fd.polys):
            assert fd.expand(p) == ref_expand(fd, p) == [0] * m + [1], (fd.family, m)
        assert fd.expand(SPACES[fd.space]()) == []
        with pytest.raises(fam.ExpansionError):
            fd.expand(SPACES[fd.space].x_power(top + 1))


def ref_pairing(op, fd, max_deg):
    """<op e_i, e_j> for monomials e_i, e_j up to max_deg, each one a
    Fraction triple sum over the family basis."""
    cols = [ref_expand(fd, op(op.basis(i))) for i in range(max_deg + 1)]
    basis = [ref_expand(fd, op.basis(j)) for j in range(max_deg + 1)]
    return [[sum((a * b * h for a, b, h in zip(cols[i], basis[j], fd.h)), F(0))
             for j in range(max_deg + 1)] for i in range(max_deg + 1)]


def test_pairing_table_is_the_naive_triple_sum(degree16):
    max_deg = 5
    for fd in degree16.values():
        for op in (fd.L, fd.D, op_x(fd.space)):
            want = ref_pairing(op, fd, max_deg)
            rows, den = _pairing_rows(op, fd, max_deg)
            assert all(type(v) is int for row in rows for v in row)
            for i in range(max_deg + 1):
                for j in range(max_deg + 1):
                    assert F(rows[i][j], den) == want[i][j], (fd.family, op.name, i, j)


def test_integer_residuals_are_the_fraction_residuals(degree16):
    # each operator with which of its (symmetry, skew) residuals is
    # nonzero; those must be exact too, as eq53-nonskew reports its text
    max_deg = 6
    for fd in degree16.values():
        L = fd.L
        tested = [(L, (True, False)), (fd.D, (False, True)), (op_x(fd.space), (False, True)),
                  (PolyOperator(lambda f: L(f) + f, L.space, L.degree_shift, "L+1"),
                   (True, True))]
        if fd.family == fam.CQU:
            tested.append((cqultra_nonskew_op(fd.spec), (True, True)))
        for op, nonzero in tested:
            t = ref_pairing(op, fd, max_deg)
            pairs = [(t[i][j], t[j][i]) for i in range(max_deg + 1) for j in range(max_deg + 1)]
            got = (symmetry_residual(op, fd, max_deg), skew_symmetry_residual(op, fd, max_deg))
            want = tuple(max(abs(a + sign * b) for a, b in pairs) for sign in (-1, 1))
            assert all(type(v) is F for v in got), (fd.family, op.name)
            assert got == want, (fd.family, op.name)
            assert tuple(v != 0 for v in got) == nonzero, (fd.family, op.name)


#: restricted points where abcd = q^2 at the Askey-Wilson point, so that
#: B_0 needs its cancelled form (q = s^4 and the Askey-Wilson base q^(1/2))
ABCD_Q2 = {"cqjacobi-abcd-q2": fam.cqjacobi_spec(0, 0, F(1, 2)),
           "cqultra-abcd-q2": fam.cqultra_spec(F(1, 2), F(1, 2))}


@pytest.mark.parametrize("family", [fam.AW, fam.CQJ49, fam.CQU, fam.BIGQ, *ABCD_Q2])
def test_recurrence_rows_are_the_naive_elimination(family, degree16):
    # A_n, B_n and C_n come from the closed forms on the Askey-Wilson
    # builds, from the expansion on big q-Jacobi; the elimination is
    # independent of both
    fd = degree16[family] if family in degree16 else fam.build_family(ABCD_Q2[family], 15)
    for n in range(fd.n_max + 1):
        co = ref_expand(fd, fd.polys_x[n].shift_x(1))
        assert all(not c for i, c in enumerate(co) if abs(i - n) > 1), n
        want = (co[n + 1], co[n], co[n - 1] if n else 0)
        assert fam.recurrence_from_expansion(fd, n) == want, n
        assert (fd.A[n], fd.B[n], fd.C[n]) == want, n


def test_recurrence_rows_catch_a_perturbed_neighbour(degree16):
    # p_5 + 1 keeps the top three coefficients of every row, so only the
    # check of the whole of x p_n can see it, in each row that reads p_5
    fd = degree16[fam.BIGQ]
    polys = list(fd.polys_x)
    polys[5] = polys[5] + XPoly([1])
    bad = fd._replace(polys_x=tuple(polys))
    for n in (4, 5, 6):
        with pytest.raises(fam.ExpansionError, match="three neighbours"):
            fam.recurrence_from_expansion(bad, n)
    for n in (2, 3, 7):
        assert fam.recurrence_from_expansion(bad, n) == fam.recurrence_from_expansion(fd, n)


# -- the normal form ----------------------------------------------------------

def assert_normal(p):
    """Integer numerators over den > 0 with gcd(content, den) = 1, no
    trailing zero (no leading zero either for a LaurentPoly), and the zero
    polynomial as () over 1 at lo 0."""
    assert type(p.nums) is tuple and all(type(v) is int for v in p.nums)
    assert type(p.den) is int and p.den > 0
    if not p.nums:
        assert p.den == 1
        assert not isinstance(p, LaurentPoly) or p.lo == 0
        return
    assert gcd(p.den, *p.nums) == 1
    assert p.nums[-1] != 0
    if isinstance(p, LaurentPoly):
        assert p.nums[0] != 0
    assert p.coeffs == tuple(F(v, p.den) for v in p.nums)


class TestNormalForm:
    @given(_LAURENT, _LAURENT, _divisor(), _RATIO)
    def test_laurent(self, f, g, d, r):
        sym = f + f.invert_z()
        for p in (f, g, f + g, f - g, f - f, f * g, f.scale(r), f.scale(0),
                  f.dilate(r), (d * f).divide_exact(d), sym, sym.to_sym()):
            assert_normal(p)

    @given(_SYM, _SYM, _RATIO)
    def test_sym(self, f, g, r):
        for p in (f, g, f + g, f - g, f - f, f * g, f.scale(r), f.scale(0),
                  f.to_laurent(), sym_to_x(f)):
            assert_normal(p)

    @given(_XPOLY, _XPOLY, _divisor(), st.one_of(_RATIO, st.just(0)))
    def test_xpoly(self, f, g, d, r):
        dx = XPoly(d.coeffs)
        for p in (f, g, f + g, f - g, f - f, f * g, f.scale(r), f.compose_scale(r),
                  (dx * f).divide_exact(dx), x_to_sym(f)):
            assert_normal(p)


@pytest.mark.parametrize("resid,degree,coeffs", [
    (LaurentPoly(-2, [1, 0, 5]), 0, [1, 0, 5]),                 # z^-2 + 5
    (SymLaurentPoly([F(1, 2), 0, 3]), 2, [F(1, 2), 0, 3]),
    (XPoly([0, F(-2, 3)]), 1, [0, F(-2, 3)]),
    (F(3, 4), 0, [F(3, 4)]),
])
def test_entry_of_each_flavour(resid, degree, coeffs):
    entry = rel._entry(4, resid)
    assert (entry.n, entry.zero, entry.degree) == (4, False, degree)
    assert list(entry.coeffs) == coeffs
    assert all(type(c) is F for c in entry.coeffs)


def test_no_private_laurent_import_outside_laurent():
    # the coefficient format is laurent.py's own: every other module reads
    # polynomials through their public names
    for path in Path(qaskey.__file__).parent.glob("*.py"):
        if path.name == "laurent.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("laurent", "qaskey.laurent"):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (path.name, private)
