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
import errno
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Callable, NamedTuple

from . import families as fam
from .families import AW, BIGQ, CLI_FAMILIES, CQJ, CQU, JACOBI as JAC
from .displays import DISPLAYS, STRUCTURE
from . import relations as rel
from .laurent import NonzeroRemainder
from .report import build_report, dump_csv, dump_report, summary_lines


def _parse_fraction(text: str, flag: str) -> Fraction:
    """The rational number ``text`` gives for ``flag``; a ValueError that
    names the flag when it gives none."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{flag} must be a rational number, got {text.strip()!r}") from exc


def _parse_params(text: str) -> dict:
    out = {}
    for item in text.split(","):
        if not item.strip():
            continue
        key, _, val = item.partition("=")
        if not _:
            raise ValueError(f"--params: bad parameter assignment {item.strip()!r}")
        key = key.strip()
        if key in out:
            raise ValueError(f"--params {key} is given more than once")
        out[key] = _parse_fraction(val, f"--params {key}")
    return out


def spec_from_params(family: str, params: dict, n_max: int) -> fam.FamilySpec:
    """The point of ``family`` the parameter values give, admissible up to
    degree n_max; a ValueError naming --params where there is none."""
    row = fam.FAMILIES[family]
    missing = [k for k in row.params if k not in params]
    if missing:
        raise ValueError(f"--params: family {family} is missing parameter {missing[0]!r}")
    try:
        spec = row.make(*(params[k] for k in row.params))
        fam.validate_spec(spec, n_max)
    except fam.InadmissibleParameters as exc:
        raise ValueError(f"--params: {exc}") from exc
    return spec


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

def _boolean(text: str) -> bool:
    if text.lower() not in ("1", "0", "true", "false", "yes", "no"):
        raise ValueError(f"expected one of 1/0/true/false/yes/no, got {text!r}")
    return text.lower() in ("1", "true", "yes")


_CONFIG_COERCE = {"n_max": int, "samples": int, "seed": int, "degree_cap": int,
                  "no_timestamp": _boolean,
                  "alpha": int, "beta": int, "n": int, "eps_steps": int,
                  "k_min": int, "k_max": int}


def _config_keys() -> set:
    """The destination of every long flag of verify and limits; the file
    serves both subcommands, so a key of either one is accepted."""
    parser = make_parser()
    keys = set(vars(parser.parse_args(["verify"])))
    keys |= set(vars(parser.parse_args(["limits", "--which", "aw-to-bigq"])))
    return keys - {"command"}


def load_config(path: str) -> dict:
    """Flag defaults from a flat key=value file: each key is a long flag
    (dashes or underscores), each value is coerced to the flag's type."""
    known = _config_keys()
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key = key.strip()
            dest = key.replace("-", "_")
            if dest not in known:
                raise ValueError(f"{path}:{lineno}: {key!r} is no long flag of verify or limits")
            try:
                out[dest] = _CONFIG_COERCE.get(dest, str)(val.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from exc
    return out


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
        point = ",".join(f"{k}={v}" for k, v in fd.spec.params.items())
        print(f"error: {ident} on {fd.family} at {point}: {text}", file=sys.stderr)
        return [rel.VerificationReport(ident, fd.family, fd.spec.params,
                                       [rel.ResidualEntry(None, False)], "fail",
                                       {"error": text})]


def _verify_point(idents, spec, build_n, args) -> list:
    """The first report of each identity in ``idents`` at one point.  A
    runner may report several identities (the eq42/eq41 chain) or one
    several times (sklyanin's e = 2, 3, 1/2); one already reported at
    the point is neither run nor kept again."""
    fd = fam.build_family(spec, build_n)
    done = set()
    reports = []
    for ident in idents:
        if ident in done:
            continue
        for rep in _run_identity(ident, fd, args):
            if rep.identity_id in done:
                continue
            done.add(rep.identity_id)
            if rep.identity_id in idents:
                reports.append(rep)
    return reports


def _verify_share(tasks, build_n, args) -> list:
    """One (stderr text, reports, exception) outcome per task, in order.
    The share stops at the first task that raises.  Before every point
    but the first, a full collection empties the interpreter's free
    lists, whose freed tuples would pin memory pools from point to point;
    every live object is frozen first, so it walks none, and nothing
    stays frozen on return."""
    import gc
    import io
    from contextlib import redirect_stderr

    outcomes = []
    try:
        for k, (idents, spec) in enumerate(tasks):
            if k:
                gc.freeze()
                gc.collect()
            err = io.StringIO()
            try:
                with redirect_stderr(err):
                    reports = _verify_point(idents, spec, build_n, args)
            except Exception as exc:
                outcomes.append((err.getvalue(), [], exc))
                break
            outcomes.append((err.getvalue(), reports, None))
    finally:
        gc.unfreeze()
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
    process takes share 0.  With one job nothing is forked: that is the
    serial run.

    Each child sends its share's outcomes down a pipe as one pickle.  The
    stderr text of every task is printed in plan order once every share
    has run, and the first exception in plan order is raised after the
    text of every earlier task, so stderr and the exit code do not depend
    on ``jobs``.  qaskey starts no threads, so forking is safe.
    """
    if jobs > 1:
        import pickle           # a serial run loads no pickle

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


def _output_files(args) -> list:
    """(flag, path) of each output that goes to a file: the report unless
    it is ``-`` (stdout), the CSV if given and not ``-``.  Both cannot go
    to stdout, as their lines would interleave."""
    if args.report == "-" and args.csv == "-":
        raise ValueError("--csv -: the report already goes to stdout (--report -); "
                         "give one of them a file")
    files = [] if args.report == "-" else [("--report", args.report)]
    if args.csv not in ("", "-"):
        files.append(("--csv", args.csv))
    return files


def _check_outputs(args) -> None:
    """A ValueError naming the flag where an output file's directory is
    missing or not writable, or the path is a directory.  Nothing is
    created or truncated."""
    for flag, path in _output_files(args):
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            code = errno.ENOENT
        elif not os.access(parent, os.W_OK):
            code = errno.EACCES
        elif os.path.isdir(path):
            code = errno.EISDIR
        else:
            continue
        raise ValueError(f"{flag} {path}: {os.strerror(code)}")


def _open_outputs(args) -> dict:
    """flag -> the file of each output that goes to a file, opened for
    writing.  Where one cannot be opened, a ValueError names its flag,
    and neither file is left behind."""
    opened = {}
    for flag, path in _output_files(args):
        try:
            opened[flag] = open(path, "w", encoding="utf-8")
        except OSError as exc:
            for fh in opened.values():
                fh.close()
                os.remove(fh.name)
            raise ValueError(f"{flag} {path}: {exc.strerror or exc}") from exc
    return opened


def _to_stdout(dump, doc) -> None:
    """``dump(doc, sys.stdout)``.  A reader that stops early (`qaskey
    verify | head`) ends the output there, not the run: later flushes,
    the one at exit included, go to /dev/null."""
    try:
        dump(doc, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def run_verify(args, jobs: int = 1) -> int:
    _check_ranges(("--n-max", args.n_max, 1), ("--samples", args.samples, 1),
                  ("--degree-cap", args.degree_cap, 0))
    families = list(CLI_FAMILIES) if args.family == "all" else [args.family]
    plan = [(family, idents) for family in families
            if (idents := identities_for(family, args.identity))]
    if not plan:
        raise ValueError(f"--identity {args.identity} checks nothing on "
                         f"--family {args.family}")
    params = _parse_params(args.params)
    extra = sorted(set(params).difference(*(fam.FAMILIES[f].params for f in families)))
    if extra:
        raise ValueError(f"--params {extra[0]} is a parameter of no family in "
                         f"--family {args.family}")
    _check_outputs(args)
    build_n = max(args.n_max + 1, 11)
    tasks, plan_error = [], None
    for family, idents in plan:
        try:
            if args.params:
                specs = [spec_from_params(family, params, build_n)]
            else:
                specs = fam.sample_specs(family, args.samples, args.seed,
                                         n_max=build_n)
        except ValueError as exc:
            # raised after the points planned before it have run, as an
            # error at any of those points comes first
            plan_error = exc
            break
        tasks += [(idents, spec) for spec in specs]
    # a plan error can leave no tasks; one job forks no worker
    reports = _verify_forked(tasks, build_n, args, max(1, min(jobs, len(tasks))))
    if plan_error is not None:
        raise plan_error

    doc = build_report(reports, args.seed, args.degree_cap,
                       timestamp=not args.no_timestamp)
    lines = summary_lines(reports)
    files = _open_outputs(args)
    report_fh, csv_fh = files.get("--report"), files.get("--csv")
    with report_fh or nullcontext(), csv_fh or nullcontext():
        if report_fh is not None:
            dump_report(doc, report_fh)
        else:
            _to_stdout(dump_report, doc)
        # the summary goes to stdout unless the report or the CSV does
        for ln in lines:
            print(ln, file=sys.stderr if "-" in (args.report, args.csv) else sys.stdout)
        if csv_fh is not None:
            dump_csv(doc, csv_fh)
        elif args.csv == "-":
            _to_stdout(dump_csv, doc)
    failed = any(r.status == "fail" for r in reports)
    return 1 if failed else 0


#: the values of ``verify --family``
FAMILY_CHOICES = (*CLI_FAMILIES, "all")

#: the limit transitions ``limits --which`` tabulates
LIMITS = ("cqjacobi-to-jacobi", "aw-to-bigq")


def run_limits(args) -> int:
    from . import limits as lim

    _check_ranges(("--n", args.n, 0))
    if args.which == "cqjacobi-to-jacobi":
        _check_ranges(("--k-min", args.k_min, 0), ("--k-max", args.k_max, args.k_min))
        limit, point = lim.limit_cqjacobi_to_jacobi, {"alpha": args.alpha, "beta": args.beta}
        ks = range(args.k_min, args.k_max + 1)
    else:
        # eps = 2^-k: k = 0 gives eps = 1, a degenerate Askey-Wilson point
        _check_ranges(("--k-min", args.k_min, 1), ("--eps-steps", args.eps_steps, 1))
        limit = lim.limit_aw_to_bigq
        point = {k: _parse_fraction(getattr(args, k), f"--{k}") for k in "abcq"}
        ks = range(args.k_min, args.k_min + args.eps_steps)
    try:
        # each limit takes its point, n and its range of k, in that order
        rows = limit(*point.values(), args.n, ks)
    except fam.InadmissibleParameters as exc:
        flags = " ".join(f"--{k} {v}" for k, v in point.items())
        raise ValueError(f"{flags}: {exc}") from exc
    lim.write_csv(rows, args.out)
    return 0


def make_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaskey",
        description="Exact verification of structure relations for "
                    "orthogonal polynomial families in the q-Askey scheme")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run identity checkers over a parameter grid")
    v.add_argument("--family", default="all", choices=FAMILY_CHOICES)
    v.add_argument("--identity", default="all",
                   help="identity key or 'all' (see README for the list)")
    v.add_argument("--n-max", type=int, default=10, dest="n_max")
    v.add_argument("--samples", type=int, default=20)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--degree-cap", type=int, default=16, dest="degree_cap")
    v.add_argument("--params", default="",
                   help="single parameter point, e.g. a=1/3,b=1/4,c=1/5,q=1/2")
    v.add_argument("--report", default="-", help="JSON report path ('-' = stdout)")
    v.add_argument("--csv", default="", help="optional CSV summary path ('-' = stdout)")
    v.add_argument("--config", default="", help="flat key=value config file")
    v.add_argument("--no-timestamp", action="store_true", dest="no_timestamp")

    l = sub.add_parser("limits", help="limit-transition convergence tables")
    # not required=True: a config file may supply it (see main)
    l.add_argument("--which", choices=LIMITS)
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
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            defaults = load_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        parser = make_parser(defaults)
        args = parser.parse_args(argv)
    # argparse checks neither presence nor choices of a config default
    if args.command == "limits" and args.which is None:
        parser.error("the following arguments are required: --which")
    flag, value, choices = (("--which", args.which, LIMITS) if args.command == "limits"
                            else ("--family", args.family, FAMILY_CHOICES))
    if value not in choices:
        parser.error(f"argument {flag}: invalid choice: {value!r} "
                     f"(choose from {', '.join(choices)})")
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
