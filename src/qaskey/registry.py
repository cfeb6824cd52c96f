"""The identity registry: every identity key, the families it covers,
its checker and the degrees it runs over.

:data:`IDENTITIES` is the one list of identity keys; each maps to its
command-line families and a :class:`Check`, which names its degree
domain in :data:`DOMAINS`, its negative-control perturb slots and
whether its reports are informational.  :func:`identities_for` picks a
family's keys, in registry order.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import families as fam
from .families import AW, BIGQ, CLI_FAMILIES, CQJ, CQU, JACOBI as JAC
from .displays import DISPLAYS, STRUCTURE, WEB
from . import operator_checks as opc
from . import relations as rel


def reanchored_spec(spec, n_max) -> tuple:
    """eq73's point and the degree it is built to: the quadruple of the
    Askey-Wilson ``spec`` with q' = q^2, since an exact q^(1/2) needs an
    even base exponent, built to min(n_max, 6)."""
    p = spec.params
    return fam.aw_spec(p["a"], p["b"], p["c"], p["d"], s=p["q"], m=2), min(n_max, 6)


def _reanchored(fd, args):
    """eq73's domain: n = 0 .. min(n_max, 6) - 1 at :func:`reanchored_spec`."""
    fd2 = fam.build_family(*reanchored_spec(fd.spec, args.n_max))
    return fd2, range(0, fd2.n_max)


#: degree domains: each maps a point and the flags to the point a check
#: runs on and its degrees -- a range of n for a per-degree check, one top
#: degree for an operator- or basis-level check
DOMAINS = {
    "1..n_max": lambda fd, a: (fd, range(1, a.n_max + 1)),
    "0..n_max": lambda fd, a: (fd, range(0, a.n_max + 1)),
    "min(10, n_max)": lambda fd, a: (fd, min(10, a.n_max)),
    "degree_cap": lambda fd, a: (fd, a.degree_cap),
    "min(degree_cap, 8)": lambda fd, a: (fd, min(a.degree_cap, 8)),
    "min(8, n_max)": lambda fd, a: (fd, min(8, a.n_max)),
    "q^2 re-anchor": _reanchored,
    "every stored n": lambda fd, a: (fd, range(fd.n_max + 1)),
}

#: the domains of the checks that take a range of degrees n
PER_DEGREE = ("1..n_max", "0..n_max", "q^2 re-anchor", "every stored n")


class Check(NamedTuple):
    """One identity's checker with its degree domain, its perturb slots
    (the negative-control mutations ``fn`` accepts) and whether its
    reports are informational (recorded, never asserted).

    ``fn(fd, degrees, perturb)`` returns the one report of its identity at
    the point; the record called with (fd, args) runs it over its domain.
    """

    fn: Callable
    domain: str
    slots: tuple
    info: bool = False

    def run(self, fd, degrees, perturb=None):
        return self.fn(fd, degrees, perturb)

    def __call__(self, fd, args):
        return self.run(*DOMAINS[self.domain](fd, args))


def _row(key):
    """The families and check of the display row ``key``, its names its slots."""
    d = DISPLAYS[key]
    return d.families, Check(rel.display_check(key), "1..n_max", d.names)


#: every identity key: (families, Check)
IDENTITIES = {
    "eq28": (CLI_FAMILIES, Check(rel.check_structure, "1..n_max", ("plus", "minus"))),
    # eq28's closed form on each family: eq18, eq26, eq59, eq54, eq40
    **{key: _row(key) for key in STRUCTURE},
    "eq59t": ((CQJ,), Check(rel.check_structure_tilde, "1..n_max", ("plus", "minus"))),
    "eq02": ((JAC,), Check(rel.display_check("eq02"), "1..n_max", ("middle", "plus"))),
    "eq31": (CLI_FAMILIES, Check(rel.display_check("eq76", "eq31", generic=True), "1..n_max",
                                 ("rhs", "slope"))),
    "eq32": (CLI_FAMILIES, Check(rel.display_check("eq77", "eq32", generic=True), "1..n_max",
                                 ("rhs", "slope"))),
    "eq76": _row("eq76"),
    "eq77": _row("eq77"),
    "bangerezako": ((AW,), Check(rel.check_bangerezako, "1..n_max", ("lambda",))),
    "eq71": (CLI_FAMILIES, Check(rel.check_bispectral, "0..n_max", ("lambda",))),
    "eq73": ((AW,), Check(rel.residual_q_bispectral, "q^2 re-anchor", ("lambda",), info=True)),
    "sklyanin": ((AW,), Check(rel.check_sklyanin, "min(degree_cap, 8)", ("shift",))),
    # the q-ultraspherical web: eq51, eq52, eq53, eq55, qdiff2
    **{key: _row(key) for key in WEB},
    "combo54": ((CQU,), Check(rel.check_cqultra_combination, "1..n_max", ("u",))),
    "eq53-nonskew": ((CQU,), Check(rel.check_cqultra_nonskew, "min(8, n_max)", ("op",))),
    # the two steps of the chain, which each point builds once (FamilyData.chain)
    "eq42": ((BIGQ,), Check(rel.check_eq42, "1..n_max", ("alpha",))),
    "eq41": ((BIGQ,), Check(rel.check_eq41, "1..n_max", ("a-tilde",))),
    "qdiff-derive": ((AW, BIGQ), Check(rel.check_qdiff_recovery, "every stored n",
                                       ("reference",))),
    "coeff-match": (CLI_FAMILIES, Check(rel.check_coefficient_match, "1..n_max", ("plus",))),
    "eigen": (CLI_FAMILIES, Check(opc.check_eigen, "0..n_max", ("lambda",))),
    "gamma-lambda": (CLI_FAMILIES, Check(opc.check_gamma_lambda, "0..n_max", ("gamma",))),
    "commutator": (CLI_FAMILIES, Check(opc.check_commutator, "degree_cap", ("normalization",))),
    "d-from-l": ((AW, JAC, CQJ, CQU), Check(opc.check_d_from_l, "degree_cap", ("normalization",))),
    "string": ((JAC,), Check(opc.check_string_jacobi, "degree_cap", ("shape",))),
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

