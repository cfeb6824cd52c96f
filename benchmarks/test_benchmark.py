"""Self-test of the benchmark: every workload at one point per family in
both modes, the oracle and its negative control, the report checks, the
seed screen, the tracer's list of what it could not patch, and the
refusal to run without sources.

    python3 -m pytest benchmarks -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import Tally, check_report, load  # noqa: E402
from oracle import Oracle  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def one_point(monkeypatch):
    """Every workload at its smallest size: one point per family."""
    for name, wl in list(run.WORKLOADS.items()):
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(wl, samples=1))


def bench(capsys, workload, trace="0"):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace])
    out = capsys.readouterr()
    assert code == 0, out.err
    return json.loads(out.out.splitlines()[-1]), out.err


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smallest_size(workload, trace, one_point, capsys):
    result, err = bench(capsys, workload, trace)
    assert result["correct"], err
    assert result["attempted"] > 0 and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


POINTS = {
    "askey-wilson": {"a": "1/3", "b": "-1/4", "c": "1/5", "d": "2/7", "q": "1/2"},
    "jacobi": {"alpha": "1/2", "beta": "-1/3"},
    "big-q-jacobi": {"a": "1/3", "b": "1/4", "c": "1/5", "q": "1/2"},
}


@pytest.mark.parametrize("family", list(POINTS))
def test_oracle_and_negative_control(family):
    oracle = Oracle(family, POINTS[family])
    for n in range(1, 7):
        assert oracle.mismatch(n) is None
        assert oracle.mismatch(n, perturb=True) is not None


def test_checks_catch_a_missing_identity(one_point, capsys):
    bench(capsys, "x-grid")
    doc = load(HERE / "out" / "x-grid" / "big-q-jacobi.json")
    tally = Tally()
    check_report(doc, ("big-q-jacobi",), 1, 10, "all", tally)
    assert not tally.problems
    doc["results"] = [r for r in doc["results"] if r["identity_id"] != "eq41"]
    tally = Tally()
    check_report(doc, ("big-q-jacobi",), 1, 10, "all", tally)
    assert any("eq41" in p for p in tally.problems)


def _aw(a, b, c, d, q):
    return dict(zip("abcdq", map(Fraction, (a, b, c, d, q))))


def test_screen_flags_only_the_points_verify_dies_on():
    # abcd = q^2 dies on every identity
    assert run.degenerate("askey-wilson", _aw("-1/2", "-1/3", "-1/2", "-1/3", "1/6"), "eq28")
    # sqrt(q) and -sqrt(q) among a, b, c, d dies in qdiff-derive only
    root_pair = _aw("-4/5", "-1/2", "-1/2", "1/2", "1/4")
    assert run.degenerate("askey-wilson", root_pair, "all")
    assert not run.degenerate("askey-wilson", root_pair, "eq28")
    # a pair summing to 0 that is not +-sqrt(q) is certified fine
    assert not run.degenerate("askey-wilson", _aw("1/2", "-1/2", "1/6", "1/2", "3/7"), "all")


def test_tracer_names_what_it_cannot_patch():
    tracer = Tracer()
    tracer.patch_function(types.ModuleType("qaskey.gone"), "sym_to_x", "laurent.sym_to_x")
    tracer.patch_method(type("Poly", (), {}), "__mul__", "laurent.sym_mul")
    tracer.patch_registry({})
    assert {"qaskey.gone.sym_to_x", "Poly.__mul__", "cli.IDENTITIES['eq28']"} <= tracer.missing


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "x-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
