"""Batch driver.

Two subcommands:

``verify``
    builds the requested families over sampled (or explicitly given)
    parameter points, runs the selected identity checkers, writes one
    JSON report plus an optional CSV summary, and exits 0 iff every
    asserted check passed (informational checks never affect the exit
    code), 1 on a verification failure, 2 on configuration errors.
    From the console it spreads the parameter points over the CPUs in
    its affinity mask, one forked worker per CPU; the report, stderr
    and the exit code are byte-identical to a serial run's, which
    ``taskset -c 0 qaskey verify ...`` gives.  ``main`` called in-process
    runs serially unless it is passed ``jobs``.

``limits``
    drives the two exact limit harnesses and writes the CSV
    convergence table.

A flat ``key=value`` config file can supply any long flag's value;
explicit command-line flags win.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import families as fam
from .families import AW, BIGQ, CLI_FAMILIES, CQJ, CQU, JACOBI as JAC
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
        if family == AW:
            return fam.aw_spec(params["a"], params["b"], params["c"],
                               params["d"], q=params["q"])
        if family == JAC:
            return fam.jacobi_spec(params["alpha"], params["beta"])
        if family == CQJ:
            return fam.cqjacobi_spec(params["alpha"], params["beta"], params["s"])
        if family == CQU:
            return fam.cqultra_spec(params["u"], params["s"])
        if family == BIGQ:
            return fam.bigq_spec(params["a"], params["b"], params["c"], params["q"])
    except KeyError as exc:
        raise ValueError(f"family {family} is missing parameter {exc}") from exc
    raise ValueError(f"unknown family {family!r}")


# ----------------------------------------------------------------------
# identity registry
# ----------------------------------------------------------------------

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


@dataclass(frozen=True)
class Check:
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
    return tuple(rel.check_sklyanin(fd.spec, e, max_deg, perturb)
                 for e in (Fraction(2), Fraction(3), Fraction(1, 2)))


def _qdiff_derive(fd, _, perturb=None):
    return rel.check_qdiff_recovery(fd, fd.lam, perturb)


def _chain(fd, ns, perturb=None):
    # looked up on each call, as the benchmark's tracer patches it by name
    return rel.reduce_bigq_chain(fd, ns, perturb)


def _string(fd, max_deg, perturb=None):
    return rel.check_string_jacobi(fd.spec, max_deg, perturb)


#: every identity key: (families, Check)
IDENTITIES = {
    "eq28": (CLI_FAMILIES, Check(rel.check_structure, "1..n_max", ("plus", "minus"))),
    "eq18": ((AW,), Check(rel.check_explicit_structure, "1..n_max", ("plus", "minus"))),
    "eq26": ((JAC,), Check(rel.check_explicit_structure, "1..n_max", ("plus", "minus"))),
    "eq59": ((CQJ,), Check(rel.check_explicit_structure, "1..n_max", ("plus", "minus"))),
    "eq54": ((CQU,), Check(rel.check_explicit_structure, "1..n_max", ("plus", "minus"))),
    "eq40": ((BIGQ,), Check(rel.check_explicit_structure, "1..n_max", ("plus", "minus"))),
    "eq59t": ((CQJ,), Check(rel.check_structure_tilde, "1..n_max", ("plus", "minus"))),
    "eq02": ((JAC,), Check(rel.check_classic_jacobi_structure, "1..n_max", ("middle", "plus"))),
    "eq31": (CLI_FAMILIES, Check(rel.check_lowering, "1..n_max", ("rhs", "slope"))),
    "eq32": (CLI_FAMILIES, Check(rel.check_raising, "1..n_max", ("rhs", "slope"))),
    "eq76": ((AW,), Check(rel.check_aw_lowering, "1..n_max", ("mult", "rhs"))),
    "eq77": ((AW,), Check(rel.check_aw_raising, "1..n_max", ("mult", "rhs"))),
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
    "eigen": (CLI_FAMILIES, Check(rel.check_eigen, "0..n_max", ("lambda",))),
    "gamma-lambda": (CLI_FAMILIES, Check(rel.check_gamma_lambda, "0..n_max", ("gamma",))),
    "commutator": (CLI_FAMILIES, Check(rel.check_commutator, "degree_cap", ("normalization",))),
    "d-from-l": ((AW, JAC, CQJ, CQU), Check(rel.check_d_from_l, "degree_cap", ("normalization",))),
    "string": ((JAC,), Check(_string, "degree_cap", ("shape",))),
    "skew-l": (CLI_FAMILIES, Check(rel.check_skew_l, "min(10, n_max)", ("op",))),
    "sym-d": (CLI_FAMILIES, Check(rel.check_sym_d, "min(10, n_max)", ("op",))),
    "sym-x": (CLI_FAMILIES, Check(rel.check_sym_x, "min(10, n_max)", ("op",))),
    "orthogonality": (CLI_FAMILIES, Check(rel.check_orthogonality, "min(10, n_max)", ("h",))),
    "dual-path": (CLI_FAMILIES, Check(rel.check_dual_path, "min(10, n_max)", ("A0",))),
}


def identities_for(family: str, requested: str) -> list:
    if requested != "all" and requested not in IDENTITIES:
        raise ValueError(f"unknown identity {requested!r}; known: "
                         + ", ".join(sorted(IDENTITIES)))
    return [name for name, (fams, _) in IDENTITIES.items()
            if family in fams and requested in ("all", name)]


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


def _check_ranges(*bounds) -> None:
    """Each (flag, value, least) must have value >= least."""
    for flag, value, least in bounds:
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


def _verify_point(idents, spec, build_n, args) -> list:
    """The reports of the identities ``idents`` at one parameter point."""
    fd = fam.build_family(spec, build_n)
    # a runner may report several identities (the eq42/eq41 chain);
    # one already reported at this point is not run again
    done = set()
    reports = []
    for ident in idents:
        if ident in done:
            continue
        for rep in _run_identity(ident, fd, args):
            done.add(rep.identity_id)
            if rep.identity_id in idents:
                reports.append(rep)
    return reports


def _verify_share(tasks, build_n, args) -> list:
    """One (stderr text, reports, exception) outcome per task, in order.
    The share stops at the first task that raises."""
    import io
    from contextlib import redirect_stderr

    outcomes = []
    for idents, spec in tasks:
        err = io.StringIO()
        try:
            with redirect_stderr(err):
                reports = _verify_point(idents, spec, build_n, args)
        except Exception as exc:
            outcomes.append((err.getvalue(), [], exc))
            break
        outcomes.append((err.getvalue(), reports, None))
    return outcomes


def _picklable(exc):
    """``exc``, or a RuntimeError with its type and text where it does not
    survive a pickle round trip."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _verify_forked(tasks, build_n, args, jobs) -> list:
    """The reports of ``tasks`` in plan order, from ``jobs - 1`` forked
    workers and this process: task k runs on worker k % jobs, and this
    process takes share 0.

    Each child sends its share's outcomes down a pipe as one pickle.  The
    stderr text of every task is printed in plan order, and the first
    exception in plan order is raised after the text of every earlier
    task, so stderr and the exit code match a serial run.  qaskey starts
    no threads, so forking is safe.
    """
    import pickle

    sys.stdout.flush()
    sys.stderr.flush()
    children = []               # [pid, read end of its pipe or None]
    blobs, statuses = [], []
    finished = False
    try:
        for w in range(1, jobs):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wr)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    for _, fd in children:
                        os.close(fd)
                    share = _verify_share(tasks[w::jobs], build_n, args)
                    text, reports, exc = share[-1]
                    if exc is not None:
                        share[-1] = text, reports, _picklable(exc)
                    with os.fdopen(wr, "wb") as fh:
                        pickle.dump(share, fh, pickle.HIGHEST_PROTOCOL)
                    code = 0
                except BaseException as exc:
                    # the parent reports the exit status; this says why
                    os.write(2, f"verify worker {w}: {type(exc).__name__}: {exc}\n".encode())
                finally:
                    os._exit(code)
            os.close(wr)
            children.append([pid, r])
        shares = [_verify_share(tasks[0::jobs], build_n, args)]
        for child in children:
            with os.fdopen(child[1], "rb") as fh:
                child[1] = None
                blobs.append(fh.read())
        finished = True
    finally:
        for pid, fd in children:
            if fd is not None:
                os.close(fd)
            if not finished:
                import signal
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    for w, (blob, status) in enumerate(zip(blobs, statuses), 1):
        try:
            shares.append(pickle.loads(blob) if status == 0 else None)
        except Exception:
            shares.append(None)
        if shares[-1] is None:
            how = (f"was killed by signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
                   else f"exited with status {os.waitstatus_to_exitcode(status)}")
            raise RuntimeError(f"verify worker {w} {how} without sending its results")
    reports = []
    for k in range(len(tasks)):
        text, reps, exc = shares[k % jobs][k // jobs]
        sys.stderr.write(text)
        if exc is not None:
            raise exc
        reports += reps
    return reports


def run_verify(args, jobs: int = 1) -> int:
    _check_ranges(("--n-max", args.n_max, 1), ("--samples", args.samples, 1),
                  ("--degree-cap", args.degree_cap, 0))
    families = list(CLI_FAMILIES) if args.family == "all" else [args.family]
    plan = [(family, idents) for family in families
            if (idents := identities_for(family, args.identity))]
    if not plan:
        raise ValueError(f"--identity {args.identity} checks nothing on "
                         f"--family {args.family}")
    build_n = max(args.n_max + 1, 11)
    tasks, plan_error = [], None
    for family, idents in plan:
        try:
            if args.params:
                specs = [spec_from_params(family, _parse_params(args.params))]
            else:
                specs = fam.sample_specs(family, args.samples, args.seed,
                                         n_max=build_n)
        except ValueError as exc:
            # raised after the points planned before it have run, as an
            # error at any of those points comes first
            plan_error = exc
            break
        tasks += [(idents, spec) for spec in specs]
    if jobs == 1 or len(tasks) <= 1:
        reports = [rep for idents, spec in tasks
                   for rep in _verify_point(idents, spec, build_n, args)]
    else:
        reports = _verify_forked(tasks, build_n, args, min(jobs, len(tasks)))
    if plan_error is not None:
        raise plan_error
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
    _check_ranges(("--n", args.n, 0))
    if args.which == "cqjacobi-to-jacobi":
        _check_ranges(("--k-min", args.k_min, 0), ("--k-max", args.k_max, args.k_min))
        rows = lim.limit_cqjacobi_to_jacobi(
            args.alpha, args.beta, args.n,
            k_range=range(args.k_min, args.k_max + 1))
    else:
        # eps = 2^-k: k = 0 gives eps = 1, a degenerate Askey-Wilson point
        _check_ranges(("--k-min", args.k_min, 1), ("--eps-steps", args.eps_steps, 1))
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
                   choices=list(CLI_FAMILIES) + ["all"])
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


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main(argv=None, jobs: int = 1) -> int:
    """Run one subcommand; ``verify`` spreads its points over ``jobs``
    processes (see :func:`_verify_forked`)."""
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
            return run_verify(args, jobs)
        return run_limits(args)
    except (fam.InadmissibleParameters, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main(jobs=usable_cpus()))


if __name__ == "__main__":
    entry()
