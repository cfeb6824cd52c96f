import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from qaskey import cli
from qaskey import families as fam
from qaskey import relations as rel


def run(argv):
    return cli.main(argv)


class TestVerify:
    def test_single_point_chain(self, tmp_path, capsys):
        rep = tmp_path / "r.json"
        code = run(["verify", "--family", "big-q-jacobi", "--identity", "eq41",
                    "--params", "a=1/3,b=1/4,c=1/5,q=1/2", "--n-max", "5",
                    "--no-timestamp", "--report", str(rep)])
        assert code == 0
        doc = json.loads(rep.read_text())
        assert all(r["status"] == "pass" for r in doc["results"])
        assert {r["identity_id"] for r in doc["results"]} == {"eq41"}

    def test_batch_structure_report_shape(self, tmp_path):
        rep = tmp_path / "r.json"
        code = run(["verify", "--family", "askey-wilson", "--identity", "eq18",
                    "--n-max", "10", "--samples", "20", "--seed", "7",
                    "--no-timestamp", "--report", str(rep)])
        assert code == 0
        doc = json.loads(rep.read_text())
        results = doc["results"]
        assert len(results) == 200                 # 20 samples x n = 1..10
        assert all(r["status"] == "pass" for r in results)
        assert all(r["residual"] is None for r in results)
        # schema fields
        assert set(doc) == {"run", "results"}
        assert set(doc["run"]) == {"seed", "degree_cap"}
        row = results[0]
        assert set(row) == {"identity_id", "family", "params", "n", "status", "residual"}
        assert all("/" in v for v in row["params"].values())

    def test_timestamp_field(self, tmp_path):
        rep = tmp_path / "r.json"
        run(["verify", "--family", "jacobi", "--identity", "eq26",
             "--samples", "1", "--report", str(rep)])
        doc = json.loads(rep.read_text())
        assert "timestamp" in doc["run"]

    def test_determinism(self, tmp_path):
        args = ["verify", "--family", "continuous-q-ultraspherical",
                "--identity", "eq54", "--samples", "4", "--seed", "99",
                "--n-max", "6", "--no-timestamp"]
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--report", str(r1)]) == 0
        assert run(args + ["--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_csv_summary(self, tmp_path):
        rep, csvp = tmp_path / "r.json", tmp_path / "s.csv"
        run(["verify", "--family", "jacobi", "--identity", "eq02",
             "--samples", "2", "--n-max", "4", "--no-timestamp",
             "--report", str(rep), "--csv", str(csvp)])
        lines = csvp.read_text().strip().split("\n")
        assert lines[0] == "identity_id,family,n,status"
        assert len(lines) == 1 + 2 * 4

    def test_info_status_does_not_fail(self, tmp_path):
        rep = tmp_path / "r.json"
        code = run(["verify", "--family", "askey-wilson", "--identity", "eq73",
                    "--samples", "2", "--n-max", "5", "--no-timestamp",
                    "--report", str(rep)])
        assert code == 0
        doc = json.loads(rep.read_text())
        assert {r["status"] for r in doc["results"]} == {"info"}

    def test_unknown_identity(self):
        assert run(["verify", "--family", "jacobi", "--identity", "nope"]) == 2

    def test_bad_family_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--family", "nonsense"])
        assert exc.value.code == 2

    def test_empty_check_set_rejected(self, tmp_path, capsys):
        # eq18 is an Askey-Wilson identity: on jacobi it would check nothing
        rep = tmp_path / "r.json"
        assert run(["verify", "--family", "jacobi", "--identity", "eq18",
                    "--report", str(rep)]) == 2
        err = capsys.readouterr().err
        assert "--identity" in err and "--family" in err
        assert not rep.exists()

    def test_missing_param_single_point(self):
        assert run(["verify", "--family", "askey-wilson", "--identity", "eq18",
                    "--params", "a=1/3"]) == 2

    @pytest.mark.parametrize("flag,value", [("--n-max", "0"), ("--n-max", "-3"),
                                            ("--samples", "0"), ("--degree-cap", "-1")])
    def test_empty_range_rejected(self, flag, value, capsys):
        assert run(["verify", "--family", "jacobi", "--identity", "eq26",
                    flag, value]) == 2
        assert flag in capsys.readouterr().err

    def test_abcd_equal_q_squared_rejected(self, capsys):
        # abcd = (1/6)^2 = q^2: the closed form of B_0 would divide by zero
        assert run(["verify", "--params", "a=-1/2,b=-1/3,c=-1/2,d=-1/3,q=1/6"]) == 2
        assert "error: abcd = q^2" in capsys.readouterr().err

    def test_raising_checker_is_a_recorded_failure(self, tmp_path, capsys):
        # two of a, b, c, d are sqrt(q) and -sqrt(q): the derivation raises NoSolution
        rep = tmp_path / "r.json"
        code = run(["verify", "--family", "askey-wilson", "--identity", "qdiff-derive",
                    "--params", "a=-4/5,b=-1/2,c=-1/2,d=1/2,q=1/4",
                    "--no-timestamp", "--report", str(rep)])
        assert code == 1
        rows = json.loads(rep.read_text())["results"]
        assert [(r["identity_id"], r["status"]) for r in rows] == [("qdiff-derive", "fail")]
        assert "NoSolution" in capsys.readouterr().err

    def test_bigq_chain_and_derivation_run_once_per_point(self, tmp_path, monkeypatch):
        calls = []
        for name in ("derive_second_order_qdiff", "reduce_bigq_chain"):
            real = getattr(rel, name)
            monkeypatch.setattr(rel, name,
                                lambda *a, _r=real, _n=name: calls.append(_n) or _r(*a))
        assert run(["verify", "--family", "big-q-jacobi", "--identity", "all",
                    "--samples", "2", "--n-max", "4", "--no-timestamp",
                    "--report", str(tmp_path / "r.json")]) == 0
        assert sorted(calls) == ["derive_second_order_qdiff"] * 2 + ["reduce_bigq_chain"] * 2

    @pytest.mark.parametrize("spec", [
        fam.bigq_spec(F(1, 3), F(1, 4), F(1, 5), F(1, 2)),
        fam.aw_spec(F(1, 3), F(1, 4), F(1, 5), F(-1, 6), q=F(1, 2)),
    ], ids=lambda s: s.family)
    def test_qdiff_derive_compares_eigenvalues(self, spec):
        # the runner checks the derived eigenvalues against the point's
        # own lambda_n; one wrong reference value must fail the report
        fd = fam.build_family(spec, 5)
        _, runner = cli.IDENTITIES["qdiff-derive"]
        args = cli.make_parser().parse_args(["verify"])
        assert [r.status for r in runner(fd, args)] == ["pass"]
        lam = list(fd.lam)
        lam[3] += 1
        bad = dataclasses.replace(fd, lam=tuple(lam))
        reports = runner(bad, args)
        assert [r.status for r in reports] == ["fail"]
        assert [e.n for e in reports[0].entries if not e.zero] == [3]


class TestConfig:
    def test_config_file_defaults_and_override(self, tmp_path):
        rep = tmp_path / "r.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=jacobi\nidentity=eq26\nsamples=3\nseed=5\n"
                       "n-max=4\nno-timestamp=true\nreport=%s\n" % rep)
        assert run(["verify", "--config", str(cfg)]) == 0
        doc = json.loads(rep.read_text())
        assert len(doc["results"]) == 3 * 4
        # CLI flag overrides the file value
        rep2 = tmp_path / "r2.json"
        assert run(["verify", "--config", str(cfg), "--samples", "1",
                    "--report", str(rep2)]) == 0
        assert len(json.loads(rep2.read_text())["results"]) == 4

    def test_missing_config(self):
        assert run(["verify", "--config", "/nonexistent.cfg"]) == 2

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line without equals\n")
        assert run(["verify", "--config", str(cfg)]) == 2


class TestLimitsCommand:
    def test_cqjacobi_table(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run(["limits", "--which", "cqjacobi-to-jacobi", "--alpha", "1",
                    "--beta", "2", "--n", "3", "--k-max", "8", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "step,parameter_value,max_deviation,ratio"
        assert len(lines) == 1 + 6                 # k = 3..8

    def test_aw_to_bigq_table(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run(["limits", "--which", "aw-to-bigq", "--eps-steps", "6",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 7
        ratios = [float(l.split(",")[3]) for l in lines[2:]]
        assert all(r >= 2.0 for r in ratios)       # O(eps) certified

    @pytest.mark.parametrize("argv,flag", [
        (["--which", "aw-to-bigq", "--k-min", "-1", "--eps-steps", "2"], "--k-min"),
        (["--which", "cqjacobi-to-jacobi", "--k-min", "-1"], "--k-min"),
        (["--which", "cqjacobi-to-jacobi", "--n", "-1"], "--n "),
        (["--which", "aw-to-bigq", "--n", "-1"], "--n "),
        (["--which", "aw-to-bigq", "--eps-steps", "0"], "--eps-steps"),
        (["--which", "cqjacobi-to-jacobi", "--k-min", "5", "--k-max", "4"], "--k-max"),
        (["--which", "aw-to-bigq", "--k-min", "0", "--eps-steps", "2"], "--k-min"),
    ])
    def test_out_of_range_rejected(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run(["limits", *argv, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_missing_which(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["limits"])
        assert exc.value.code == 2

    def test_precision_flag_gone(self, capsys):
        # the q -> 1 table is exact, so there is no working precision to set
        with pytest.raises(SystemExit) as exc:
            run(["limits", "--which", "cqjacobi-to-jacobi", "--precision", "50"])
        assert exc.value.code == 2
        assert "--precision" in capsys.readouterr().err


def test_cli_import_leaves_out_mpmath():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, qaskey.cli; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestFullGridSmoke:
    def test_all_identities_one_sample(self, tmp_path):
        rep = tmp_path / "all.json"
        code = run(["verify", "--family", "all", "--identity", "all",
                    "--samples", "1", "--seed", "13", "--n-max", "6",
                    "--degree-cap", "8", "--no-timestamp", "--report", str(rep)])
        assert code == 0
        doc = json.loads(rep.read_text())
        statuses = {r["status"] for r in doc["results"]}
        assert statuses <= {"pass", "info"}
        idents = {r["identity_id"] for r in doc["results"]}
        assert idents == set(cli.IDENTITIES)
        info = {r["identity_id"] for r in doc["results"] if r["status"] == "info"}
        assert info == {key for key, (_, check) in cli.IDENTITIES.items() if check.info}


class TestReportBytes:
    # sha256 of the report of every identity on one point per family at
    # seed 1.  Exactness means a faster path must leave these bytes alone;
    # the digest changes only together with a CHANGES.md entry that says
    # why the report changed.
    DIGEST = "303bdcb47b7bdc07311a9febca7ed4bf6af0fa698a198ec882d08546d532eaa1"

    def test_full_grid_digest(self, tmp_path):
        rep = tmp_path / "all.json"
        assert run(["verify", "--family", "all", "--identity", "all", "--samples", "1",
                    "--seed", "1", "--no-timestamp", "--report", str(rep)]) == 0
        assert hashlib.sha256(rep.read_bytes()).hexdigest() == self.DIGEST

    # sha256 of eq28 on one point per family at --n-max 14, which builds
    # every family to degree 16 (the default --n-max 10 stops at 12)
    HIGH_DEGREE_DIGEST = "bcc2b16a903eed86eebe90d082522a3fe16736275914d4c8f54320fa8d0b9f13"

    def test_high_degree_digest(self, tmp_path):
        rep = tmp_path / "eq28.json"
        assert run(["verify", "--family", "all", "--identity", "eq28", "--n-max", "14",
                    "--samples", "1", "--seed", "1", "--no-timestamp",
                    "--report", str(rep)]) == 0
        assert hashlib.sha256(rep.read_bytes()).hexdigest() == self.HIGH_DEGREE_DIGEST
