"""Parameter points of the five families and their admissibility.

A :class:`FamilySpec` names a family and fixes rational parameter
values.  Fractional powers of q are kept rational by carrying a base
scale s with q = s**base_exp, so expressions like q^(alpha/2 + 1/4)
become integer powers of s.  The constructors below make the points,
and the checks at the end reject a point whose denominators vanish up
to a given degree; :func:`qaskey.families.validate_spec` picks the
check from the point's row of :data:`qaskey.families.FAMILIES`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Union

Rat = Union[int, Fraction]

AW = "askey-wilson"
JACOBI = "jacobi"
CQJ49 = "continuous-q-jacobi-e49"
CQU = "continuous-q-ultraspherical"
BIGQ = "big-q-jacobi"

#: the command-line name of continuous q-Jacobi, whose points carry the
#: family name CQJ49 after the embedding they are built through
CQJ = "continuous-q-jacobi"

#: families exposed on the command line
CLI_FAMILIES = (AW, JACOBI, CQJ, CQU, BIGQ)


class InadmissibleParameters(ValueError):
    """Parameter values that hit an excluded denominator or power of q."""



class FamilySpec(NamedTuple):
    """One parameter point.  The constructors below give ``params`` in
    sorted key order, and every report of the point holds this one
    mapping as its params."""

    family: str
    params: Mapping[str, Fraction]
    base: Fraction | None = None   # s with q = s**base_exp
    base_exp: int = 1

    @property
    def q(self) -> Fraction:
        return self.params["q"]

    def qpow(self, e: Rat) -> Fraction:
        """q**e as an exact rational, via the base scale."""
        if self.base is None:
            raise InadmissibleParameters(f"family {self.family} has no base scale")
        ex = Fraction(e) * self.base_exp
        if ex.denominator != 1:
            raise InadmissibleParameters(
                f"q^({e}) is not an integer power of the base scale s={self.base}")
        return self.base ** int(ex)


# ----------------------------------------------------------------------
# parameter-point constructors
# ----------------------------------------------------------------------

def aw_spec(a: Rat, b: Rat, c: Rat, d: Rat, q: Rat | None = None,
            s: Rat | None = None, m: int = 1) -> FamilySpec:
    """Askey-Wilson parameters; pass either q directly or a base s with q=s^m."""
    if (q is None) == (s is None):
        raise ValueError("give exactly one of q or a base scale s")
    if q is None:
        base = Fraction(s)
        qv = base ** m
    else:
        base, m, qv = Fraction(q), 1, Fraction(q)
    return FamilySpec(AW, {"a": Fraction(a), "b": Fraction(b), "c": Fraction(c),
                           "d": Fraction(d), "q": qv}, base=base, base_exp=m)


def jacobi_spec(alpha: Rat, beta: Rat) -> FamilySpec:
    al, be = Fraction(alpha), Fraction(beta)
    if al <= -1 or be <= -1:
        raise InadmissibleParameters("alpha and beta must exceed -1")
    return FamilySpec(JACOBI, {"alpha": al, "beta": be}, base=None, base_exp=0)


def cqjacobi_spec(alpha: Rat, beta: Rat, s: Rat) -> FamilySpec:
    al, be, sv = Fraction(alpha), Fraction(beta), Fraction(s)
    if (2 * al).denominator != 1 or (2 * be).denominator != 1:
        raise InadmissibleParameters(
            "alpha, beta must be half-integers so q^(alpha/2+1/4) is a power of s")
    if not (0 < sv < 1):
        raise InadmissibleParameters("base scale s must lie in (0,1)")
    if al < 0 or be < 0:
        raise InadmissibleParameters(
            "alpha, beta >= 0 keeps the induced parameters inside the unit interval")
    return FamilySpec(CQJ49, {"alpha": al, "beta": be, "q": sv ** 4},
                      base=sv, base_exp=4)


def cqultra_spec(u: Rat, s: Rat) -> FamilySpec:
    """Continuous q-ultraspherical with t = u^2 (so t^(1/2) stays rational)
    at q = s^4, so that q^(1/4), which the four-parameter restriction and
    the explicit second-order operator need, is the power s of the base."""
    uv, sv = Fraction(u), Fraction(s)
    if not (0 < abs(uv) < 1):
        raise InadmissibleParameters("u must satisfy 0 < |u| < 1")
    if not (0 < sv < 1):
        raise InadmissibleParameters("base scale s must lie in (0,1)")
    return FamilySpec(CQU, {"q": sv ** 4, "t": uv * uv, "u": uv},
                      base=sv, base_exp=4)


def bigq_spec(a: Rat, b: Rat, c: Rat, q: Rat) -> FamilySpec:
    av, bv, cv, qv = Fraction(a), Fraction(b), Fraction(c), Fraction(q)
    if av == 0 or cv == 0:
        raise InadmissibleParameters("a and c must be nonzero")
    return FamilySpec(BIGQ, {"a": av, "b": bv, "c": cv, "q": qv},
                      base=qv, base_exp=1)


def cqjacobi_aw_spec(spec: FamilySpec, embedding: int = 49) -> FamilySpec:
    """The Askey-Wilson parameter point a continuous q-Jacobi family restricts."""
    s = spec.base
    al, be = spec.params["alpha"], spec.params["beta"]
    ea, eb = int(2 * al), int(2 * be)
    if embedding == 49:
        # base q^(1/2) = s^2 and quadruple (q^(a/2+1/4), -q^(b/2+1/4), q^(1/4), -q^(1/4))
        return aw_spec(s ** (ea + 1), -s ** (eb + 1), s, -s, s=s, m=2)
    # base q = s^4 and quadruple (q^(a/2+1/4), q^(a/2+3/4), -q^(b/2+1/4), -q^(b/2+3/4))
    return aw_spec(s ** (ea + 1), s ** (ea + 3), -s ** (eb + 1), -s ** (eb + 3),
                   s=s, m=4)


def cqultra_aw_spec(spec: FamilySpec) -> FamilySpec:
    """AW quadruple (t^(1/2), -t^(1/2), q^(1/4), -q^(1/4)) at base q^(1/2)."""
    s, u = spec.base, spec.params["u"]
    return aw_spec(u, -u, s, -s, s=s, m=2)


# ----------------------------------------------------------------------
# admissibility
# ----------------------------------------------------------------------

def _check_cqjacobi(spec: FamilySpec, n_max: int) -> None:
    _validate_aw(cqjacobi_aw_spec(spec, 49).params, n_max)
    _validate_aw(cqjacobi_aw_spec(spec, 9).params, n_max)


def _check_bigq(spec: FamilySpec, n_max: int) -> None:
    """aq^k and -cq^k for k <= n_max + 1 (the 3phi2's lower parameters),
    and ab q^k for k <= 2 n_max + 2 (its leading coefficients and eq40's
    1 - ab q^(2n+1)), must differ from 1."""
    a, b, c, q = (spec.params[k] for k in "abcq")
    for n in range(1, 2 * n_max + 3):
        if a * b * q ** n == 1 or (n <= n_max + 1 and (a * q ** n == 1 or c * q ** n == -1)):
            raise InadmissibleParameters(f"degenerate denominator at n={n}")


def _validate_aw(params: Mapping[str, Fraction], n_max: int) -> None:
    a, b, c, d, q = (params[k] for k in "abcdq")
    if 0 in (a, b, c, d):
        raise InadmissibleParameters("zero Askey-Wilson parameter")
    # q^-k by k, distinct for 0 < q < 1: p q^k = 1 <=> p = q^-k
    top = 2 * n_max
    inv = {q ** -k: k for k in range(top + 3)}
    prods = [a * a, b * b, c * c, d * d,
             a * b, a * c, a * d, b * c, b * d, c * d]
    for p in prods:
        k = inv.get(p)
        if k is not None and k <= top:
            raise InadmissibleParameters(f"product {p} is an inverse power of q")
    abcd = a * b * c * d               # abcd q^m = 1 for m = 0 .. 2 n_max + 2
    if abcd in inv:
        raise InadmissibleParameters("abcd hits an inverse power of q")

