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

The identity keys and their checks are listed in :mod:`qaskey.registry`,
and :mod:`qaskey.runner` runs them over the points, serially or forked.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import families as fam
from .families import CLI_FAMILIES
# IDENTITIES is bound here too: the benchmark's tracer patches the
# registry through cli.IDENTITIES, which must be the registry's own dict
from .registry import IDENTITIES, identities_for
from .report import build_report, dump_csv, dump_report, summary_lines
from .runner import _verify_forked


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

def _check_ranges(*bounds) -> None:
    """Each (flag, value, least) must have value >= least."""
    for flag, value, least in bounds:
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")


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

