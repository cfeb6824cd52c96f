"""Benchmark: certify qaskey's identities through ``qaskey verify``.

    python3 benchmarks/run.py --workload sym-grid --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; ``src/`` is put on the path of
every child, so nothing needs installing.  The last line on stdout is
one JSON object: ``correct``, ``attempted`` and ``failed`` (asserted
report entries, summed over the rounds run) and ``metrics``.

``--trace 0`` measures the end-to-end metrics.  It repeats rounds of
the workload's ``verify`` calls, each in a fresh child process, one
after another, while another round still fits in ``--seconds``.  After
every call it times ``setup_s`` twice: a fresh interpreter that imports
``qaskey.cli`` and draws the workload's parameter points.  ``wall_s`` is
the mean round time, ``peak_rss_mb`` the median over rounds and
``setup_s`` the median over rounds of each round's mean set-up time.
Every round runs the same inputs, so its reports must be byte-identical
to the first round's, which are checked in full (see ``checks.py``).

``--trace 1`` gives the per-layer metrics.  It runs one untraced round
in child processes, then each call again in this process, untraced and
then under :class:`tracer.Tracer`; all three must write the same report
bytes.  ``trace.overhead_s`` is the traced in-process time minus the
untraced in-process time.  The spans are written to
``benchmarks/out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from checks import Tally, check_report, load

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

FAMILIES = ("askey-wilson", "jacobi", "continuous-q-jacobi",
            "continuous-q-ultraspherical", "big-q-jacobi")
SETUP_PER_CALL = 2
TRACE_PASSES = 3          # child round, untraced in-process, traced in-process


@dataclass(frozen=True)
class Workload:
    families: tuple       # one verify call per entry; "all" is one call over all five
    samples: int          # parameter points per family
    identity: str = "all"
    n_max: int = 10

    def calls(self, seed: int) -> list:
        return [(fam, ["verify", "--family", fam, "--identity", self.identity,
                       "--n-max", str(self.n_max), "--samples", str(self.samples),
                       "--seed", str(seed), "--no-timestamp"])
                for fam in self.families]

    def checked(self, fam: str) -> tuple:
        """The families one call covers."""
        return FAMILIES if fam == "all" else (fam,)

    @property
    def covered(self) -> list:
        return [f for fam in self.families for f in self.checked(fam)]

    @property
    def cap(self) -> int:
        """The degree `verify` builds to, which the sampler admits points for."""
        return max(self.n_max + 1, 11)


# Why these three: sym-grid spends its time in x<->z conversion, symmetric
# products and operator columns; x-grid never converts between x and z
# (conversion work must leave it unchanged); structure-sweep is family
# construction plus one L per point, so it bypasses the column cache.
WORKLOADS = {
    "sym-grid": Workload(("askey-wilson", "continuous-q-jacobi",
                          "continuous-q-ultraspherical"), samples=2),
    "x-grid": Workload(("jacobi", "big-q-jacobi"), samples=16),
    "structure-sweep": Workload(("all",), samples=8, identity="eq28", n_max=14),
}

# The child draws points exactly as `verify` does, with Workload.cap.
SETUP_CODE = """
import sys
import qaskey.cli
from qaskey import families
seed, samples, cap = (int(v) for v in sys.argv[1:4])
for fam in sys.argv[4:]:
    families.sample_specs(fam, samples, seed, n_max=cap)
"""

# `verify` dies without a report on two kinds of Askey-Wilson point that
# the sampler admits (see the FOUND lines in CHANGES.md): abcd = q^2, where
# families._aw_B divides by zero at n = 0 whatever the identity, and a
# point where two of a, b, c, d are sqrt(q) and -sqrt(q), where
# relations.derive_second_order_qdiff raises NoSolution, which only
# qdiff-derive reaches.  Both are tests on the drawn parameters alone;
# nothing of qaskey is run to decide.  A seed that draws such a point is
# replaced by the first of seed + k * SEED_STRIDE, 0 < k <= MAX_MOVES,
# that draws none.
SEED_STRIDE = 1000
MAX_MOVES = 20


def degenerate(family: str, params: dict, identity: str) -> bool:
    if family != "askey-wilson":
        return False
    a, b, c, d, q = (params[k] for k in "abcdq")
    if a * b * c * d == q ** 2:
        return True
    pairs = ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d))
    return identity in ("all", "qdiff-derive") and any(x + y == 0 and x * y == -q
                                                      for x, y in pairs)


def screen_seed(wl: "Workload", seed: int):
    """The seed `verify` runs with, or None if every move draws such a point."""
    from qaskey import families

    for k in range(MAX_MOVES + 1):
        s = seed + k * SEED_STRIDE
        if not any(degenerate(f, spec.params, wl.identity) for f in wl.covered
                   for spec in families.sample_specs(f, wl.samples, s, n_max=wl.cap)):
            return s
    return None


E2E_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# Linux starts a child's max RSS at the RSS of the process it was forked
# from, which for this process is as large as a verify call.  So each child
# is forked from a launcher that imports nothing (`python3 -S`), and the
# launcher times it from fork to exit and reads its rusage with wait4.
LAUNCHER = """
import os, sys, time
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    null = os.open(os.devnull, os.O_RDWR)
    os.dup2(null, 0)
    os.dup2(null, 1)
    try:
        os.execv(sys.argv[1], sys.argv[1:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - t0, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def spawn(argv: list, log) -> tuple:
    """(seconds from spawn to exit, max RSS in MB, exit code) of one child."""
    out = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, *argv], cwd=ROOT,
                         env=child_env(), stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE, stderr=log, text=True, check=True)
    sec, kib, code = out.stdout.split()
    return float(sec), int(kib) / 1024, int(code)


def digest(path: Path):
    if not path.is_file():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Round:
    walls: tuple          # seconds per verify call
    rss: float            # the largest max RSS of the round's calls, MB
    codes: tuple
    digests: tuple

    @property
    def wall(self) -> float:
        return sum(self.walls)


def child_round(calls: list, paths: list, log, after_call=None) -> Round:
    walls, rss, codes, digests = [], 0.0, [], []
    for (_, args), path in zip(calls, paths):
        path.unlink(missing_ok=True)
        sec, mb, code = spawn([sys.executable, "-m", "qaskey.cli", *args,
                               "--report", str(path)], log)
        walls.append(sec)
        rss = max(rss, mb)
        codes.append(code)
        digests.append(digest(path))
        if after_call:
            after_call()
    return Round(tuple(walls), rss, tuple(codes), tuple(digests))


def check_reports(wl: Workload, calls: list, paths: list, codes: tuple,
                  tally: Tally) -> None:
    for (fam, _), path, code in zip(calls, paths, codes):
        if not path.is_file():
            tally.problem(f"{path.name}: no report (exit {code})")
            continue
        before = tally.failed
        check_report(load(path), wl.checked(fam), wl.samples, wl.n_max, wl.identity, tally)
        expected = 1 if tally.failed > before else 0
        if code != expected:
            tally.problem(f"{fam}: verify exited {code}, expected {expected}")


def run_untraced(wl, calls, paths, seed, seconds, log) -> tuple:
    setup_argv = [sys.executable, "-c", SETUP_CODE, str(seed), str(wl.samples),
                  str(wl.cap), *wl.covered]
    setup, setup_codes, rounds = [], set(), []

    # set-up is timed after every verify call, so that its samples are
    # spread over the whole run as the calls' are: the host's speed
    # changes from one stretch of seconds to the next
    def set_up():
        for _ in range(SETUP_PER_CALL):
            sec, _, code = spawn(setup_argv, log)
            setup.append(sec)
            setup_codes.add(code)

    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(child_round(calls, paths, log, after_call=set_up))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break

    tally = Tally()
    if setup_codes != {0}:
        tally.problem(f"set-up child exited {sorted(setup_codes)}")
    first = rounds[0]
    if any(r.digests != first.digests or r.codes != first.codes for r in rounds):
        tally.problem("reports differ between rounds of the same inputs")
    check_reports(wl, calls, paths, first.codes, tally)
    # The host switches between two speeds about 1.5x apart, for stretches
    # of seconds to minutes.  A median of a few samples lands on one speed
    # or the other, while a mean moves only with the share of time spent
    # slow, so wall_s is the mean round time.  setup_s is the median over
    # rounds of each round's mean set-up time.
    per_round = SETUP_PER_CALL * len(calls)
    metrics = {"wall_s": statistics.fmean(r.wall for r in rounds),
               "peak_rss_mb": statistics.median(r.rss for r in rounds),
               "setup_s": statistics.median(statistics.fmean(setup[i:i + per_round])
                                            for i in range(0, len(setup), per_round))}
    per_call = list(zip(*(r.walls for r in rounds)))
    print(f"{len(rounds)} rounds; per call " + "; ".join(
        " ".join(f"{w:.3f}" for w in walls) for walls in per_call)
          + "; setup " + " ".join(f"{s:.3f}" for s in setup), file=sys.stderr)
    return tally, len(rounds), metrics, E2E_UNITS


def timed_call(cli, args: list, path: Path) -> tuple:
    """(seconds, exit code) of one verify call in this process."""
    path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        code = cli.main([*args, "--report", str(path)])
    return time.perf_counter() - t0, code


def run_traced(wl, calls, paths, workload, log) -> tuple:
    ref = child_round(calls, paths, log)
    from qaskey import cli
    from tracer import Tracer

    plain_paths = [p.with_suffix(".untraced.json") for p in paths]
    traced_paths = [p.with_suffix(".traced.json") for p in paths]
    tracer = Tracer()
    plain, traced = [], []
    # untraced and traced call by call, so that a change in host speed
    # between two whole passes does not show up as tracing overhead
    for (_, args), plain_path, traced_path in zip(calls, plain_paths, traced_paths):
        plain.append(timed_call(cli, args, plain_path))
        with tracer:
            traced.append(timed_call(cli, args, traced_path))
    plain_s, plain_codes = sum(t for t, _ in plain), tuple(c for _, c in plain)
    traced_s, traced_codes = sum(t for t, _ in traced), tuple(c for _, c in traced)

    tally = Tally()
    if not (ref.digests == tuple(map(digest, plain_paths)) == tuple(map(digest, traced_paths))):
        tally.problem("traced and untraced runs wrote different report bytes")
    if not ref.codes == plain_codes == traced_codes:
        tally.problem(f"exit codes differ: {ref.codes} {plain_codes} {traced_codes}")
    check_reports(wl, calls, traced_paths, traced_codes, tally)
    for name in sorted(tracer.missing):
        tally.problem(f"tracer found no {name} to patch")

    metrics = tracer.metrics()
    metrics["report.bytes"] = sum(p.stat().st_size for p in traced_paths if p.is_file())
    metrics["trace.overhead_s"] = traced_s - plain_s
    units = {name: ("count" if name.endswith((".calls", ".misses"))
                    else "ratio" if name.endswith("hit_ratio")
                    else "B" if name == "report.bytes" else "s")
             for name in metrics}
    tracer.dump(OUT / f"trace-{workload}.json")
    print(f"child round {ref.wall:.3f} s; in-process untraced {plain_s:.3f} s, "
          f"traced {traced_s:.3f} s; {len(tracer.span_start)} spans", file=sys.stderr)
    for name, (calls_n, incl, own) in sorted(tracer.self_times().items(),
                                             key=lambda kv: -kv[1][2])[:12]:
        print(f"  self {own:8.3f} s  incl {incl:8.3f} s  {calls_n:8d}  {name}",
              file=sys.stderr)
    return tally, TRACE_PASSES, metrics, units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qaskey" / "cli.py").is_file():
        print(f"error: no qaskey sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    screened = screen_seed(wl, args.seed)
    seed = args.seed if screened is None else screened
    if seed != args.seed:
        print(f"seed {args.seed} draws a point verify dies on; "
              f"verify runs with seed {seed}", file=sys.stderr)
    calls = wl.calls(seed)
    paths = [out / f"{fam}.json" for fam, _ in calls]

    with open(out / "stderr.log", "w", encoding="utf-8") as log:
        if args.trace:
            tally, passes, metrics, units = run_traced(wl, calls, paths, args.workload, log)
        else:
            tally, passes, metrics, units = run_untraced(wl, calls, paths, seed,
                                                         args.seconds, log)
    if screened is None:
        tally.problem(f"seeds {args.seed} + k * {SEED_STRIDE}, k <= {MAX_MOVES}, "
                      "all draw a point verify dies on")
    for text in tally.problems:
        print(f"problem: {text}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.asserted * passes,
        "failed": tally.failed * passes,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
