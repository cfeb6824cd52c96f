"""``verify`` with its points spread over forked workers.

``cli.main(argv, jobs=k)`` takes the fork path that the console entry
takes on a k-CPU affinity mask.  A fork inherits the test's
monkeypatches, so a fault injected at one parameter point lands in the
share of whichever worker runs that point: task k of the plan runs on
worker k % jobs, and worker 0 is the calling process.
"""

import hashlib
import os
import pickle
import signal
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import test_cli
from qaskey import cli
from qaskey import families as fam
from qaskey import relations as rel

SRC = Path(cli.__file__).resolve().parents[1]

#: four Jacobi points, every identity, low degree: four tasks in plan order
ARGV = ["verify", "--family", "jacobi", "--identity", "all", "--samples", "4",
        "--seed", "1", "--n-max", "3", "--degree-cap", "6", "--no-timestamp"]
POINTS = fam.sample_specs(fam.JACOBI, 4, 1, n_max=11)     # build_n = max(3 + 1, 11)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    # every worker was reaped: no zombie, nothing still running
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def digest(argv, path, jobs):
    assert cli.main([*argv, "--report", str(path)], jobs=jobs) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("jobs", [2, 3])
def test_goldens_unchanged(tmp_path, jobs):
    grid = ["verify", "--family", "all", "--identity", "all", "--samples", "1",
            "--seed", "1", "--no-timestamp"]
    high = ["verify", "--family", "all", "--identity", "eq28", "--n-max", "14",
            "--samples", "1", "--seed", "1", "--no-timestamp"]
    golden = test_cli.TestReportBytes
    assert digest(grid, tmp_path / "all.json", jobs) == golden.DIGEST
    assert digest(high, tmp_path / "eq28.json", jobs) == golden.HIGH_DEGREE_DIGEST


def test_console_entry_digest(tmp_path):
    rep = tmp_path / "eq28.json"
    subprocess.run([sys.executable, "-m", "qaskey.cli", "verify", "--family", "all",
                    "--identity", "eq28", "--n-max", "14", "--samples", "1",
                    "--seed", "1", "--no-timestamp", "--report", str(rep)],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                   check=True)
    assert (hashlib.sha256(rep.read_bytes()).hexdigest()
            == test_cli.TestReportBytes.HIGH_DEGREE_DIGEST)


def test_cli_import_leaves_out_pickle_and_multiprocessing():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, qaskey.cli; "
         "print(sorted(m for m in ('pickle', 'multiprocessing') if m in sys.modules))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        check=True)
    assert out.stdout.strip() == "[]"


def test_reports_survive_the_pickle_a_worker_sends():
    rep = rel.VerificationReport(
        "eq53-nonskew", fam.CQU, {"q": F(1, 4), "u": F(-2, 3)},
        [rel.ResidualEntry(2, False, 1, (F(-1, 3), F(4))), rel.ResidualEntry(None, False),
         rel.ResidualEntry(3, True)], "fail", {"error": "NoSolution: none", "e": "1/2"})
    back = pickle.loads(pickle.dumps([rep], pickle.HIGHEST_PROTOCOL))[0]
    assert type(back) is rel.VerificationReport and back == rep
    assert back.notes == {"error": "NoSolution: none", "e": "1/2"}
    assert back.entries[0] == (2, False, 1, (F(-1, 3), 4))
    assert type(back.entries[0]) is rel.ResidualEntry
    # a report without notes holds None, not a dict of its own
    assert rel.VerificationReport("eq28", fam.JACOBI, {}, []).notes is None


def fault_at(monkeypatch, faults, ident="eq26"):
    """Make ``ident``'s checker call ``faults[k]()`` at point k of POINTS."""
    fams, check = cli.IDENTITIES[ident]

    def fn(fd, degrees, perturb=None):
        for k, fault in faults.items():
            if fd.spec == POINTS[k]:
                fault()
        return check.fn(fd, degrees, perturb)

    monkeypatch.setitem(cli.IDENTITIES, ident, (fams, check._replace(fn=fn)))


def run(tmp_path, capsys, jobs):
    rep = tmp_path / f"r{jobs}.json"
    rep.unlink(missing_ok=True)
    code = cli.main([*ARGV, "--report", str(rep)], jobs=jobs)
    out = rep.read_bytes() if rep.exists() else None
    return code, out, capsys.readouterr().err


def raiser(exc):
    def fault():
        raise exc
    return fault


@pytest.mark.parametrize("jobs", [2, 3])
def test_recorded_failures_match_serial(tmp_path, capsys, monkeypatch, jobs):
    # point 1 runs on worker 1 and point 2 on worker 0 (jobs 2) or 2 (jobs 3)
    fault_at(monkeypatch, {1: raiser(rel.NoSolution("no ansatz at 1")),
                           2: raiser(rel.NoSolution("no ansatz at 2"))})
    serial = run(tmp_path, capsys, 1)
    code, report, err = serial
    assert code == 1
    assert err.index("no ansatz at 1") < err.index("no ansatz at 2")
    assert run(tmp_path, capsys, jobs) == serial


@pytest.mark.parametrize("jobs", [2, 3])
def test_first_error_in_plan_order_exits_2(tmp_path, capsys, monkeypatch, jobs):
    # a recorded failure at point 0, then two configuration errors: the
    # one at point 1 (a worker's share) comes first in plan order
    fault_at(monkeypatch, {0: raiser(rel.NoSolution("no ansatz at 0")),
                           1: raiser(ValueError("bad point 1")),
                           3: raiser(ValueError("bad point 3"))})
    serial = run(tmp_path, capsys, 1)
    code, report, err = serial
    assert (code, report) == (2, None)
    assert "no ansatz at 0" in err and "error: bad point 1" in err
    assert "bad point 3" not in err
    assert run(tmp_path, capsys, jobs) == serial


def test_exception_that_does_not_pickle(tmp_path, monkeypatch):
    class LocalError(Exception):
        pass

    fault_at(monkeypatch, {1: raiser(LocalError("cannot travel"))})
    with pytest.raises(LocalError):
        cli.main([*ARGV, "--report", str(tmp_path / "r1.json")], jobs=1)
    with pytest.raises(RuntimeError, match="LocalError: cannot travel"):
        cli.main([*ARGV, "--report", str(tmp_path / "r2.json")], jobs=2)


@pytest.mark.parametrize("fault,status", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
], ids=["exit-3", "sigkill"])
def test_worker_without_result_fails_the_call(tmp_path, monkeypatch, fault, status):
    test_pid = os.getpid()

    def in_worker():
        if os.getpid() != test_pid:
            fault()

    fault_at(monkeypatch, {1: in_worker})
    rep = tmp_path / "r.json"
    with pytest.raises(RuntimeError, match=f"worker 1 {status}"):
        cli.main([*ARGV, "--report", str(rep)], jobs=2)
    assert not rep.exists()


@pytest.mark.parametrize("jobs", [2, 3])
def test_plan_error_after_earlier_points(tmp_path, capsys, monkeypatch, jobs):
    # --params fits askey-wilson and jacobi but not continuous-q-jacobi:
    # both points run, and the planning error follows a serial run's order
    argv = ["verify", "--identity", "eq28", "--n-max", "3", "--no-timestamp",
            "--params", "a=1/3,b=1/4,c=1/5,d=-1/6,q=1/2,alpha=1,beta=2"]
    _, check = cli.IDENTITIES["eq28"]

    def fn(fd, degrees, perturb=None):
        if fd.family == fam.JACOBI:
            raise rel.NoSolution("no ansatz on jacobi")
        return check.fn(fd, degrees, perturb)

    monkeypatch.setitem(cli.IDENTITIES, "eq28", (fam.CLI_FAMILIES,
                                                 check._replace(fn=fn)))
    outcomes = []
    for j in (1, jobs):
        code = cli.main([*argv, "--report", str(tmp_path / "r.json")], jobs=j)
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
    code, err = outcomes[0]
    assert code == 2
    assert err.index("no ansatz on jacobi") < err.index("missing parameter 's'")
    assert not (tmp_path / "r.json").exists()
