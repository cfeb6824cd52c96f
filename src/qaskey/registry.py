"""The identity registry: every identity key, the families it covers,
its checker and the degrees it runs over.

:data:`IDENTITIES` is the one list of identity keys; each maps to its
command-line families and a :class:`Check`, which names its degree
domain in :data:`DOMAINS`, its negative-control perturb slots and
whether its reports are informational.  :func:`identities_for` picks a
family's keys, in registry order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from . import families as fam
from .families import AW, BIGQ, CLI_FAMILIES, CQJ, CQU, JACOBI as JAC
from .displays import DISPLAYS, STRUCTURE
from . import operator_checks as opc
from . import relations as rel


def _reanchored(fd, args):
    """eq73's domain: n = 0 .. min(n_max, 6) - 1 at the sampled quadruple
    with q' = q^2, since an exact q^(1/2) needs an even base exponent."""
    p = fd.spec.params
    spec2 = fam.aw_spec(p["a"], p["b"], p["c"], p["d"], s=p["q"], m=2)
    fd2 = fam.build_family(spec2, min(args.n_max, 6))
    return fd2, range(0, fd2.n_max)


#: degree domains: each maps a point and the flags to the point a check
#: runs on and its degrees -- a range of n for a per-degree check, one top
#: degree for an operator- or basis-level check, None for a check that
#: reads every stored degree of the point itself
DOMAINS = {
    "1..n_max": lambda fd, a: (fd, range(1, a.n_max + 1)),
    "0..n_max": lambda fd, a: (fd, range(0, a.n_max + 1)),
    "min(10, n_max)": lambda fd, a: (fd, min(10, a.n_max)),
    "degree_cap": lambda fd, a: (fd, a.degree_cap),
    "min(degree_cap, 8)": lambda fd, a: (fd, min(a.degree_cap, 8)),
    "min(8, n_max)": lambda fd, a: (fd, min(8, a.n_max)),
    "q^2 re-anchor": _reanchored,
    "every stored n": lambda fd, a: (fd, None),
}

#: the domains of the checks that take a range of degrees n
PER_DEGREE = ("1..n_max", "0..n_max", "q^2 re-anchor")


class Check(NamedTuple):
    """One identity's checker with its degree domain, its perturb slots
    (the negative-control mutations ``fn`` accepts) and whether its
    reports are informational (recorded, never asserted).

    ``fn(fd, degrees, perturb)`` returns one report or a tuple of them;
    the record called with (fd, args) runs it over its domain.
    """

    fn: Callable
    domain: str
    slots: tuple
    info: bool = False

    def run(self, fd, degrees, perturb=None) -> list:
        out = self.fn(fd, degrees, perturb)
        return list(out) if isinstance(out, tuple) else [out]

    def __call__(self, fd, args) -> list:
        return self.run(*DOMAINS[self.domain](fd, args))


def _cqultra(which):
    return lambda fd, ns, perturb=None: rel.check_cqultra_relation(fd, ns, which, perturb)


def _sklyanin(fd, max_deg, perturb=None):
    return rel.check_sklyanin(fd.spec, Fraction(2), max_deg, perturb)


def _qdiff_derive(fd, _, perturb=None):
    return rel.check_qdiff_recovery(fd, fd.lam, perturb)


def _chain(fd, ns, perturb=None):
    # looked up on each call, as the benchmark's tracer patches it by name
    return rel.reduce_bigq_chain(fd, ns, perturb)


def _string(fd, max_deg, perturb=None):
    return opc.check_string_jacobi(fd.spec, max_deg, perturb)


#: every identity key: (families, Check)
IDENTITIES = {
    "eq28": (CLI_FAMILIES, Check(rel.check_structure, "1..n_max", ("plus", "minus"))),
    # eq28's closed form on each family: eq18, eq26, eq59, eq54, eq40
    **{key: (DISPLAYS[key].families, Check(rel.display_check(key), "1..n_max",
                                           DISPLAYS[key].names)) for key in STRUCTURE},
    "eq59t": ((CQJ,), Check(rel.check_structure_tilde, "1..n_max", ("plus", "minus"))),
    "eq02": ((JAC,), Check(rel.display_check("eq02"), "1..n_max", ("middle", "plus"))),
    "eq31": (CLI_FAMILIES, Check(rel.display_check("eq76", "eq31", generic=True), "1..n_max",
                                 ("rhs", "slope"))),
    "eq32": (CLI_FAMILIES, Check(rel.display_check("eq77", "eq32", generic=True), "1..n_max",
                                 ("rhs", "slope"))),
    "eq76": ((AW,), Check(rel.display_check("eq76"), "1..n_max", ("slope", "rhs"))),
    "eq77": ((AW,), Check(rel.display_check("eq77"), "1..n_max", ("slope", "rhs"))),
    "bangerezako": ((AW,), Check(rel.check_bangerezako, "1..n_max", ("lambda",))),
    "eq71": (CLI_FAMILIES, Check(rel.check_bispectral, "0..n_max", ("lambda",))),
    "eq73": ((AW,), Check(rel.residual_q_bispectral, "q^2 re-anchor", ("lambda",), info=True)),
    "sklyanin": ((AW,), Check(_sklyanin, "min(degree_cap, 8)", ("shift",))),
    **{which: ((CQU,), Check(_cqultra(which), "1..n_max", ("rhs",)))
       for which in ("eq51", "eq52", "eq53", "eq55", "qdiff2")},
    "combo54": ((CQU,), Check(rel.check_cqultra_combination, "1..n_max", ("u",))),
    "eq53-nonskew": ((CQU,), Check(rel.check_cqultra_nonskew, "min(8, n_max)", ("op",))),
    # one run of the chain reports both; run_verify runs it once per point
    "eq42": ((BIGQ,), Check(_chain, "1..n_max", ("alpha",))),
    "eq41": ((BIGQ,), Check(_chain, "1..n_max", ("a-tilde",))),
    "qdiff-derive": ((AW, BIGQ), Check(_qdiff_derive, "every stored n", ("reference",))),
    "coeff-match": (CLI_FAMILIES, Check(rel.check_coefficient_match, "1..n_max", ("plus",))),
    "eigen": (CLI_FAMILIES, Check(opc.check_eigen, "0..n_max", ("lambda",))),
    "gamma-lambda": (CLI_FAMILIES, Check(opc.check_gamma_lambda, "0..n_max", ("gamma",))),
    "commutator": (CLI_FAMILIES, Check(opc.check_commutator, "degree_cap", ("normalization",))),
    "d-from-l": ((AW, JAC, CQJ, CQU), Check(opc.check_d_from_l, "degree_cap", ("normalization",))),
    "string": ((JAC,), Check(_string, "degree_cap", ("shape",))),
    "skew-l": (CLI_FAMILIES, Check(opc.check_skew_l, "min(10, n_max)", ("op",))),
    "sym-d": (CLI_FAMILIES, Check(opc.check_sym_d, "min(10, n_max)", ("op",))),
    "sym-x": (CLI_FAMILIES, Check(opc.check_sym_x, "min(10, n_max)", ("op",))),
    "orthogonality": (CLI_FAMILIES, Check(opc.check_orthogonality, "min(10, n_max)", ("h",))),
    "dual-path": (CLI_FAMILIES, Check(opc.check_dual_path, "min(10, n_max)", ("A0",))),
}


def identities_for(family: str, requested: str) -> list:
    if requested != "all" and requested not in IDENTITIES:
        raise ValueError(f"unknown identity {requested!r}; known: "
                         + ", ".join(sorted(IDENTITIES)))
    return [name for name, (fams, _) in IDENTITIES.items()
            if family in fams and requested in ("all", name)]

