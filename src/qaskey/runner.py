"""Running the registry's checks over the planned points, serially or
over forked workers.

:func:`_verify_point` builds one point and runs each of its identities;
a checker that raises one of :data:`CHECK_ERRORS` becomes a failing
report of its (identity, point) (:func:`_run_identity`).
:func:`_verify_forked` deals the points over ``jobs`` processes and
returns their reports in plan order, with stderr and the exit code the
same for every ``jobs``.
"""

from __future__ import annotations

import os
import sys

from . import families as fam
from . import relations as rel
from .laurent import NonzeroRemainder
from .registry import IDENTITIES


#: what a checker raises when the algebra it relies on breaks down; each
#: becomes a failing report for its (identity, point), not a lost batch
CHECK_ERRORS = (rel.NoSolution, rel.VerificationFailure, NonzeroRemainder,
                fam.ExpansionError)


def _run_identity(ident: str, fd, args) -> rel.VerificationReport:
    _, runner = IDENTITIES[ident]
    try:
        return runner(fd, args)
    except CHECK_ERRORS as exc:
        text = f"{type(exc).__name__}: {exc}"
        point = ",".join(f"{k}={v}" for k, v in fd.spec.params.items())
        print(f"error: {ident} on {fd.family} at {point}: {text}", file=sys.stderr)
        return rel.VerificationReport(ident, fd.family, fd.spec.params,
                                      [rel.ResidualEntry(None, False)], "fail", {"error": text})


def _verify_point(idents, spec, build_n, args) -> list:
    """The report of each identity in ``idents`` at one point."""
    fd = fam.build_family(spec, build_n)
    return [_run_identity(ident, fd, args) for ident in idents]


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
