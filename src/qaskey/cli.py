"""Batch driver.

Two subcommands:

``verify``
    builds the requested families over sampled (or explicitly given)
    parameter points, runs the selected identity checkers, writes one
    JSON report plus an optional CSV summary, and exits 0 iff every
    asserted check passed (informational checks never affect the exit
    code), 1 on a verification failure, 2 on configuration errors.

``limits``
    drives the two exact limit harnesses and writes the CSV
    convergence table.

A flat ``key=value`` config file can supply any long flag's value;
explicit command-line flags win.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import families as fam
from . import relations as rel
from . import limits as lim
from .laurent import NonzeroRemainder
from .report import build_report, dump_report, summary_lines


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text.strip())


def _parse_params(text: str) -> dict:
    out = {}
    for item in text.split(","):
        if not item.strip():
            continue
        key, _, val = item.partition("=")
        if not _:
            raise ValueError(f"bad parameter assignment {item!r}")
        out[key.strip()] = _parse_fraction(val)
    return out


def spec_from_params(family: str, params: dict) -> fam.FamilySpec:
    try:
        if family == fam.AW:
            return fam.aw_spec(params["a"], params["b"], params["c"],
                               params["d"], q=params["q"])
        if family == fam.JACOBI:
            return fam.jacobi_spec(params["alpha"], params["beta"])
        if family == "continuous-q-jacobi":
            return fam.cqjacobi_spec(params["alpha"], params["beta"], params["s"])
        if family == fam.CQU:
            return fam.cqultra_spec(params["u"], params["s"])
        if family == fam.BIGQ:
            return fam.bigq_spec(params["a"], params["b"], params["c"], params["q"])
    except KeyError as exc:
        raise ValueError(f"family {family} is missing parameter {exc}") from exc
    raise ValueError(f"unknown family {family!r}")


# ----------------------------------------------------------------------
# identity registry
# ----------------------------------------------------------------------

ALL = (fam.AW, fam.JACOBI, "continuous-q-jacobi", fam.CQU, fam.BIGQ)


def _ns(args):
    return range(1, args.n_max + 1)


def _run_explicit(fd, args):
    return [rel.check_explicit_structure(fd, _ns(args))]


def _run_chain(fd, args):
    return list(rel.reduce_bigq_chain(fd, _ns(args)))


def _run_sklyanin(fd, args):
    out = []
    for e in (Fraction(2), Fraction(3), Fraction(1, 2)):
        out.append(rel.check_sklyanin(fd.spec, e, min(args.degree_cap, 8)))
    return out


def _run_eq73(fd, args):
    # exact q^(1/2) needs an even base exponent; re-anchor the sample at
    # the same quadruple with q' = q^2 so the half power is the old q
    p = fd.spec.params
    spec2 = fam.aw_spec(p["a"], p["b"], p["c"], p["d"], s=p["q"], m=2)
    fd2 = fam.build_family(spec2, min(args.n_max, 6))
    return [rel.residual_q_bispectral(fd2, range(0, fd2.n_max))]


def _run_coeff_match(fd, args):
    return [rel.check_coefficient_match(fd, _ns(args))]


def _basis_deg(args):
    return min(10, args.n_max)


IDENTITIES = {
    "eq28": (ALL, lambda fd, a: [rel.check_structure(fd, _ns(a))]),
    "eq18": ((fam.AW,), _run_explicit),
    "eq26": ((fam.JACOBI,), _run_explicit),
    "eq59": (("continuous-q-jacobi",), _run_explicit),
    "eq54": ((fam.CQU,), _run_explicit),
    "eq40": ((fam.BIGQ,), _run_explicit),
    "eq59t": (("continuous-q-jacobi",),
              lambda fd, a: [rel.check_structure_tilde(fd, _ns(a))]),
    "eq02": ((fam.JACOBI,),
             lambda fd, a: [rel.check_classic_jacobi_structure(fd, _ns(a))]),
    "eq31": (ALL, lambda fd, a: [rel.check_lowering(fd, _ns(a))]),
    "eq32": (ALL, lambda fd, a: [rel.check_raising(fd, _ns(a))]),
    "eq76": ((fam.AW,), lambda fd, a: [rel.check_aw_lowering(fd, _ns(a))]),
    "eq77": ((fam.AW,), lambda fd, a: [rel.check_aw_raising(fd, _ns(a))]),
    "bangerezako": ((fam.AW,), lambda fd, a: [rel.check_bangerezako(fd, _ns(a))]),
    "eq71": (ALL, lambda fd, a: [rel.check_bispectral(fd, range(0, a.n_max + 1))]),
    "eq73": ((fam.AW,), _run_eq73),
    "sklyanin": ((fam.AW,), _run_sklyanin),
    "eq51": ((fam.CQU,), lambda fd, a: [rel.check_cqultra_relation(fd, _ns(a), "eq51")]),
    "eq52": ((fam.CQU,), lambda fd, a: [rel.check_cqultra_relation(fd, _ns(a), "eq52")]),
    "eq53": ((fam.CQU,), lambda fd, a: [rel.check_cqultra_relation(fd, _ns(a), "eq53")]),
    "eq55": ((fam.CQU,), lambda fd, a: [rel.check_cqultra_relation(fd, _ns(a), "eq55")]),
    "qdiff2": ((fam.CQU,), lambda fd, a: [rel.check_cqultra_relation(fd, _ns(a), "qdiff2")]),
    "combo54": ((fam.CQU,), lambda fd, a: [rel.check_cqultra_combination(fd, _ns(a))]),
    "eq53-nonskew": ((fam.CQU,),
                     lambda fd, a: [rel.check_cqultra_nonskew(fd, min(8, a.n_max))]),
    "eq42": ((fam.BIGQ,), _run_chain),
    "eq41": ((fam.BIGQ,), _run_chain),
    "qdiff-derive": ((fam.AW, fam.BIGQ),
                     lambda fd, a: [rel.check_qdiff_recovery(fd, fd.lam)]),
    "coeff-match": (ALL, _run_coeff_match),
    "eigen": (ALL, lambda fd, a: [rel.check_eigen(fd, range(0, a.n_max + 1))]),
    "gamma-lambda": (ALL, lambda fd, a: [rel.check_gamma_lambda(fd, range(0, a.n_max + 1))]),
    "commutator": (ALL, lambda fd, a: [rel.check_commutator(fd, a.degree_cap)]),
    "d-from-l": ((fam.AW, fam.JACOBI, "continuous-q-jacobi", fam.CQU),
                 lambda fd, a: [rel.check_d_from_l(fd, a.degree_cap)]),
    "string": ((fam.JACOBI,),
               lambda fd, a: [rel.check_string_jacobi(fd.spec, a.degree_cap)]),
    "skew-l": (ALL, lambda fd, a: [rel.check_skew_l(fd, _basis_deg(a))]),
    "sym-d": (ALL, lambda fd, a: [rel.check_sym_d(fd, _basis_deg(a))]),
    "sym-x": (ALL, lambda fd, a: [rel.check_sym_x(fd, _basis_deg(a))]),
    "orthogonality": (ALL, lambda fd, a: [rel.check_orthogonality(fd, _basis_deg(a))]),
    "dual-path": (ALL, lambda fd, a: [rel.check_dual_path(fd, _basis_deg(a))]),
}


def identities_for(family: str, requested: str) -> list:
    if requested != "all":
        if requested not in IDENTITIES:
            raise ValueError(f"unknown identity {requested!r}; known: "
                             + ", ".join(sorted(IDENTITIES)))
        fams, _ = IDENTITIES[requested]
        return [requested] if family in fams else []
    return [name for name, (fams, _) in IDENTITIES.items() if family in fams]


# ----------------------------------------------------------------------
# config file
# ----------------------------------------------------------------------

def load_config(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


_CONFIG_COERCE = {"n_max": int, "samples": int, "seed": int, "degree_cap": int,
                  "no_timestamp": lambda v: v.lower() in ("1", "true", "yes"),
                  "alpha": int, "beta": int, "n": int, "eps_steps": int,
                  "k_min": int, "k_max": int}


def coerced_config(path: str) -> dict:
    cfg = load_config(path)
    return {key: _CONFIG_COERCE.get(key, str)(val) for key, val in cfg.items()}


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

#: what a checker raises when the algebra it relies on breaks down; each
#: becomes a failing report for its (identity, point), not a lost batch
CHECK_ERRORS = (rel.NoSolution, rel.VerificationFailure, NonzeroRemainder,
                fam.ExpansionError)


def _check_ranges(args) -> None:
    for flag, value, least in (("--n-max", args.n_max, 1), ("--samples", args.samples, 1),
                               ("--degree-cap", args.degree_cap, 0)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")


def _run_identity(ident: str, fd, args) -> list:
    _, runner = IDENTITIES[ident]
    try:
        return runner(fd, args)
    except CHECK_ERRORS as exc:
        text = f"{type(exc).__name__}: {exc}"
        point = ",".join(f"{k}={v}" for k, v in fd.spec.sorted_params().items())
        print(f"error: {ident} on {fd.family} at {point}: {text}", file=sys.stderr)
        return [rel.VerificationReport(ident, fd.family, fd.spec.sorted_params(),
                                       [rel.ResidualEntry(None, False)], "fail",
                                       {"error": text})]


def run_verify(args) -> int:
    _check_ranges(args)
    families = list(ALL) if args.family == "all" else [args.family]
    reports = []
    build_n = max(args.n_max + 1, 11)
    for family in families:
        idents = identities_for(family, args.identity)
        if not idents:
            continue
        if args.params:
            specs = [spec_from_params(family, _parse_params(args.params))]
        else:
            specs = fam.sample_specs(family, args.samples, args.seed,
                                     n_max=build_n)
        for spec in specs:
            fd = fam.build_family(spec, build_n)
            # a runner may report several identities (the eq42/eq41 chain);
            # one already reported at this point is not run again
            done = set()
            for ident in idents:
                if ident in done:
                    continue
                for rep in _run_identity(ident, fd, args):
                    done.add(rep.identity_id)
                    if rep.identity_id in idents:
                        reports.append(rep)
    seen = set()
    unique = []
    for r in reports:
        key = (r.identity_id, r.family, tuple(sorted((k, str(v)) for k, v in r.params.items())))
        if key in seen:
            continue
        seen.add(key)
        unique.append(r)
    reports = unique

    doc = build_report(reports, args.seed, args.degree_cap,
                       timestamp=not args.no_timestamp)
    text = dump_report(doc)
    lines = summary_lines(reports)
    if args.report == "-":
        sys.stdout.write(text)
        for ln in lines:
            print(ln, file=sys.stderr)
    else:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
        for ln in lines:
            print(ln)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("identity_id,family,n,status\n")
            for r in doc["results"]:
                fh.write(f"{r['identity_id']},{r['family']},{r['n']},{r['status']}\n")
    failed = any(r.status == "fail" for r in reports)
    return 1 if failed else 0


def run_limits(args) -> int:
    if args.which == "cqjacobi-to-jacobi":
        rows = lim.limit_cqjacobi_to_jacobi(
            args.alpha, args.beta, args.n,
            k_range=range(args.k_min, args.k_max + 1))
    else:
        rows = lim.limit_aw_to_bigq(
            _parse_fraction(args.a), _parse_fraction(args.b),
            _parse_fraction(args.c), _parse_fraction(args.q), args.n,
            eps_ks=range(args.k_min, args.k_min + args.eps_steps))
    lim.write_csv(rows, args.out)
    return 0


def make_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaskey",
        description="Exact verification of structure relations for "
                    "orthogonal polynomial families in the q-Askey scheme")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run identity checkers over a parameter grid")
    v.add_argument("--family", default="all",
                   choices=list(ALL) + ["all"])
    v.add_argument("--identity", default="all",
                   help="identity key or 'all' (see README for the list)")
    v.add_argument("--n-max", type=int, default=10, dest="n_max")
    v.add_argument("--samples", type=int, default=20)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--degree-cap", type=int, default=16, dest="degree_cap")
    v.add_argument("--params", default="",
                   help="single parameter point, e.g. a=1/3,b=1/4,c=1/5,q=1/2")
    v.add_argument("--report", default="-", help="JSON report path ('-' = stdout)")
    v.add_argument("--csv", default="", help="optional CSV summary path")
    v.add_argument("--config", default="", help="flat key=value config file")
    v.add_argument("--no-timestamp", action="store_true", dest="no_timestamp")

    l = sub.add_parser("limits", help="limit-transition convergence tables")
    l.add_argument("--which", required=True,
                   choices=["cqjacobi-to-jacobi", "aw-to-bigq"])
    l.add_argument("--alpha", type=int, default=1)
    l.add_argument("--beta", type=int, default=2)
    l.add_argument("--n", type=int, default=3)
    l.add_argument("--a", default="1/3")
    l.add_argument("--b", default="1/4")
    l.add_argument("--c", default="1/5")
    l.add_argument("--q", default="1/2")
    l.add_argument("--eps-steps", type=int, default=8, dest="eps_steps")
    l.add_argument("--k-min", type=int, default=3, dest="k_min")
    l.add_argument("--k-max", type=int, default=12, dest="k_max")
    l.add_argument("--out", default="-", help="CSV output path ('-' = stdout)")
    l.add_argument("--config", default="", help="flat key=value config file")
    if defaults:
        # subcommands parse into a fresh namespace, so defaults must land
        # on the subparsers themselves, not only on the root parser
        for p in (parser, v, l):
            p.set_defaults(**defaults)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.config:
        try:
            defaults = coerced_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        args = make_parser(defaults).parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify(args)
        return run_limits(args)
    except (fam.InadmissibleParameters, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
