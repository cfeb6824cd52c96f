import gc
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
from qaskey import runner


def run(argv):
    return cli.main(argv)


def no_solution_in_qdiff_derive(monkeypatch):
    """Make qdiff-derive's checker raise NoSolution, as a derivation that
    finds no unique equation at a point does."""
    fams, check = cli.IDENTITIES["qdiff-derive"]

    def fn(fd, degrees, perturb=None):
        raise rel.NoSolution("ansatz degree 5 leaves a 4-dim space")

    monkeypatch.setitem(cli.IDENTITIES, "qdiff-derive", (fams, check._replace(fn=fn)))


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

    @pytest.mark.parametrize("flag", ["--report", "--csv"])
    def test_unwritable_output_names_the_flag(self, flag, tmp_path, capsys):
        paths = {"--report": tmp_path / "r.json", "--csv": tmp_path / "s.csv"}
        paths[flag] = tmp_path / "missing" / "out"
        assert run(["verify", "--family", "jacobi", "--identity", "eq26", "--samples", "1",
                    "--n-max", "2", "--no-timestamp", "--report", str(paths["--report"]),
                    "--csv", str(paths["--csv"])]) == 2
        assert f"error: {flag} {paths[flag]}: " in capsys.readouterr().err
        # neither output is left behind, as on any other exit 2
        assert not any(p.exists() for p in paths.values())

    # an empty --csv asks for no CSV, so the empty path is a --report case only
    @pytest.mark.parametrize("target,reason,flag", [
        *((target, reason, flag)
          for target, reason in [("missing/out", "No such file or directory"),
                                 (".", "Is a directory")]
          for flag in ("--report", "--csv")),
        ("", "No such file or directory", "--report"),
    ])
    def test_unwritable_output_found_before_any_point(self, flag, target, reason, tmp_path,
                                                      capsys, monkeypatch):
        def no_point(*_):
            raise AssertionError("a point ran before the output paths were checked")

        monkeypatch.setattr(runner, "_verify_point", no_point)
        paths = {"--report": tmp_path / "r.json", "--csv": tmp_path / "s.csv"}
        paths[flag] = tmp_path / target if target else ""
        assert run(["verify", "--family", "jacobi", "--identity", "eq26", "--samples", "1",
                    "--report", str(paths["--report"]), "--csv", str(paths["--csv"])]) == 2
        assert f"error: {flag} {paths[flag]}: {reason}" in capsys.readouterr().err
        assert not any(p and p.is_file() for p in paths.values())

    @pytest.mark.parametrize("spelling", ["r.json", "sub/../r.json"], ids=["same", "dotdot"])
    def test_csv_onto_the_report_rejected(self, spelling, tmp_path, capsys, monkeypatch):
        # the CSV would overwrite the report; the paths are compared resolved
        def no_point(*_):
            raise AssertionError("a point ran before the output paths were checked")

        monkeypatch.setattr(runner, "_verify_point", no_point)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert run(["verify", "--family", "jacobi", "--identity", "all", "--samples", "2",
                    "--report", "r.json", "--csv", spelling]) == 2
        assert capsys.readouterr().err.startswith(f"error: --csv {spelling}: ")
        assert not (tmp_path / "r.json").exists()

    def test_csv_dash_is_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rep, csvp = tmp_path / "r.json", tmp_path / "s.csv"
        argv = ["verify", "--family", "jacobi", "--identity", "eq26", "--samples", "1",
                "--n-max", "2", "--no-timestamp", "--report", str(rep)]
        assert run([*argv, "--csv", str(csvp)]) == 0
        capsys.readouterr()
        assert run([*argv, "--csv", "-"]) == 0
        out, err = capsys.readouterr()
        # the CSV alone on stdout, the summary on stderr, no file named "-"
        assert out == csvp.read_text()
        assert "PASS eq26" in err
        assert not (tmp_path / "-").exists()

    def test_csv_and_report_both_stdout_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--family", "jacobi", "--identity", "eq26", "--samples", "1",
                    "--report", "-", "--csv", "-"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --csv -: ")
        assert not (tmp_path / "-").exists()

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

    @pytest.mark.parametrize("value", ["1/0", "x"])
    def test_bad_param_value_names_the_flag(self, value, capsys):
        assert run(["verify", "--family", "askey-wilson", "--identity", "eq18",
                    "--params", f"a=1/3,b=1/4,c=1/5,d=1/6,q={value}"]) == 2
        assert "--params q" in capsys.readouterr().err

    def test_param_no_family_takes_rejected(self, tmp_path, capsys):
        rep = tmp_path / "r.json"
        assert run(["verify", "--family", "jacobi", "--identity", "eq26",
                    "--params", "alpha=1/2,beta=1/3,gamma=5", "--report", str(rep)]) == 2
        assert "--params gamma" in capsys.readouterr().err
        assert not rep.exists()

    def test_param_without_value_names_the_flag(self, capsys):
        assert run(["verify", "--family", "jacobi", "--identity", "eq26",
                    "--params", "alpha=1,beta"]) == 2
        assert "--params: bad parameter assignment 'beta'" in capsys.readouterr().err

    def test_repeated_param_names_the_flag(self, tmp_path, capsys):
        # alpha=3 must not silently overwrite alpha=1
        rep = tmp_path / "r.json"
        assert run(["verify", "--family", "jacobi", "--identity", "eq26",
                    "--params", "alpha=1,beta=2,alpha=3", "--report", str(rep)]) == 2
        assert "--params alpha" in capsys.readouterr().err
        assert not rep.exists()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=jacobi\nidentity=eq26\nparams=alpha=1,beta=2, alpha =3\n"
                       f"report={rep}\n")
        assert run(["verify", "--config", str(cfg)]) == 2
        assert "--params alpha" in capsys.readouterr().err
        assert not rep.exists()

    def test_family_all_takes_every_familys_params(self, tmp_path):
        # one combined --params serves all five families
        assert run(["verify", "--family", "all", "--identity", "eq28", "--n-max", "2",
                    "--params", "a=1/3,b=1/4,c=1/5,d=1/6,q=1/2,alpha=1,beta=2,s=1/2,u=1/3",
                    "--no-timestamp", "--report", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("flag,value", [("--n-max", "0"), ("--n-max", "-3"),
                                            ("--samples", "0"), ("--degree-cap", "-1")])
    def test_empty_range_rejected(self, flag, value, capsys):
        assert run(["verify", "--family", "jacobi", "--identity", "eq26",
                    flag, value]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("params", ["a=-1/2,b=-1/3,c=-1/2,d=-1/3,q=1/6",
                                        "a=1/2,b=1/3,c=1/2,d=1/3,q=1/36"],
                             ids=["abcd-q2", "abcd-q"])
    def test_abcd_equal_q_or_q_squared_admitted(self, params, tmp_path):
        # abcd = q^2 and abcd = q (eq73's rebuild at base q^2 has abcd = q'):
        # the factor 1 - abcd/q cancels from A_0 and h_n, so both build
        out = tmp_path / "r.json"
        assert run(["verify", "--family", "askey-wilson", "--params", params,
                    "--no-timestamp", "--report", str(out)]) == 0
        statuses = [r["status"] for r in json.loads(out.read_text())["results"]]
        assert (statuses.count("pass"), statuses.count("info"), len(statuses)) == (280, 6, 286)

    @pytest.mark.parametrize("family,params,reason", [
        ("askey-wilson", "a=0,b=1/4,c=1/5,d=1/6,q=1/2", "zero Askey-Wilson parameter"),
        ("jacobi", "alpha=-1,beta=0", "alpha and beta must exceed -1"),
        ("big-q-jacobi", "a=2,b=1/4,c=1/5,q=1/2", "degenerate denominator at n=1"),
        ("continuous-q-jacobi", "alpha=1,beta=2", "missing parameter 's'"),
        # ab q^13 = 1: the 3phi2's leading coefficients read ab q^k to 2 n_max + 2
        ("big-q-jacobi", "a=24576,b=1/3,c=1/3,q=1/2", "degenerate denominator at n=13"),
    ], ids=["zero-a", "alpha-minus-one", "aq-one", "missing-s", "abq13-one"])
    def test_bad_point_names_the_flag(self, family, params, reason, tmp_path, capsys):
        rep = tmp_path / "r.json"
        assert run(["verify", "--family", family, "--identity", "eq28",
                    "--params", params, "--report", str(rep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --params: ") and reason in err
        assert not rep.exists()

    def test_params_refused_at_eq73s_q_squared_point_names_the_flag(self, tmp_path, capsys):
        # admissible at q (ab = q^-24 lies past k <= 22), but eq73's rebuild at
        # q' = q^2 to degree 6 reads ab = q'^-12: refused before any point runs
        point = "a=4096,b=4096,c=1/3,d=1/5,q=1/2"
        rep = tmp_path / "r.json"
        assert run(["verify", "--family", "askey-wilson", "--identity", "all",
                    "--params", point, "--no-timestamp", "--report", str(rep)]) == 2
        assert capsys.readouterr().err == ("error: --params: eq73 runs at q^2, where "
                                           "product 16777216 is an inverse power of q\n")
        assert not rep.exists()
        assert run(["verify", "--family", "askey-wilson", "--identity", "eq18",
                    "--params", point, "--no-timestamp", "--report", str(rep)]) == 0

    def test_raising_chain_fails_both_its_checks(self, tmp_path, capsys, monkeypatch):
        # the point does not keep a raise: eq41 builds the chain again and
        # fails too, after eq42, and every other identity is reported
        def raising(*_):
            raise rel.VerificationFailure("no chain here")

        monkeypatch.setattr(rel, "reduce_bigq_chain", raising)
        rep = tmp_path / "r.json"
        assert run(["verify", "--family", "big-q-jacobi", "--identity", "all", "--samples", "1",
                    "--seed", "1", "--n-max", "3", "--degree-cap", "4", "--no-timestamp",
                    "--report", str(rep)]) == 1
        rows = json.loads(rep.read_text())["results"]
        failed = [(r["identity_id"], r["n"]) for r in rows if r["status"] != "pass"]
        assert sorted(failed) == [("eq41", None), ("eq42", None)]
        assert {r["identity_id"] for r in rows} == set(cli.identities_for(fam.BIGQ, "all"))
        errors = capsys.readouterr().err.splitlines()
        assert [line.split()[1] for line in errors] == ["eq42", "eq41"]
        assert all(line.endswith("VerificationFailure: no chain here") for line in errors)

    def test_raising_checker_is_a_recorded_failure(self, tmp_path, capsys, monkeypatch):
        no_solution_in_qdiff_derive(monkeypatch)
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
        assert runner(fd, args).status == "pass"
        lam = list(fd.lam)
        lam[3] += 1
        bad = fd._replace(lam=tuple(lam))
        report = runner(bad, args)
        assert report.status == "fail"
        assert [e.n for e in report.entries if not e.zero] == [3]

    @pytest.mark.parametrize("family", fam.CLI_FAMILIES)
    def test_point_leaves_no_cyclic_garbage(self, family):
        # a point's operators and caches are freed by reference counting
        # as soon as its reports are made, not by the cyclic collector
        spec = fam.sample_specs(family, 1, seed=1, n_max=5)[0]
        args = cli.make_parser().parse_args(["verify", "--n-max", "4"])
        gc.collect()
        gc.disable()
        try:
            runner._verify_point(cli.identities_for(family, "all"), spec, 5, args)
            assert gc.collect() == 0
        finally:
            gc.enable()


@pytest.mark.parametrize("family", fam.CLI_FAMILIES)
def test_an_identity_alone_reports_its_report_of_all(family):
    # a check reads the point's shared data (its operators, derived
    # equation, chain and Gram matrix) the same whichever checks ran first
    spec = fam.sample_specs(family, 1, seed=1, n_max=4)[0]
    args = cli.make_parser().parse_args(["verify", "--n-max", "3", "--degree-cap", "4"])
    idents = cli.identities_for(family, "all")
    together = runner._verify_point(idents, spec, 4, args)
    assert [r.identity_id for r in together] == idents
    for key, report in zip(idents, together):
        assert runner._verify_point([key], spec, 4, args) == [report], key


@pytest.fixture(scope="module", params=fam.CLI_FAMILIES)
def point_reports(request):
    """(spec, reports) of ``--identity all`` at the seed-1 point of a family."""
    spec = fam.sample_specs(request.param, 1, seed=1, n_max=5)[0]
    args = cli.make_parser().parse_args(["verify", "--n-max", "4"])
    return spec, runner._verify_point(cli.identities_for(request.param, "all"), spec, 5, args)


class TestPointMemory:
    """What one point's reports hold grows with its reports, not its
    passing entries."""

    def test_zero_entries_are_shared_per_degree(self, point_reports):
        _, reports = point_reports
        zeros = [e for r in reports for e in r.entries if e.zero]
        assert len(zeros) > 50
        assert all(e is rel._zero(e.n) for e in zeros)
        assert rel._zero(3) == rel.ResidualEntry(3, True)

    def test_reports_share_the_points_params(self, point_reports):
        # eq73 runs at its own point: the same a, b, c, d with q' = q^2
        spec, reports = point_reports
        here = [r for r in reports if r.identity_id != "eq73"]
        assert all(r.params is spec.params for r in here)
        assert list(spec.params) == sorted(spec.params)
        for r in reports:
            if r.identity_id == "eq73":
                assert r.params == {**spec.params, "q": spec.params["q"] ** 2}

    def test_failing_entries_keep_their_coefficients(self, point_reports):
        spec, _ = point_reports
        _, check = cli.IDENTITIES["eq28"]
        fd = fam.build_family(spec, 5)
        rep = check.run(fd, range(1, 5), "plus")
        assert rep.status == "fail" and len(rep.entries) == 4
        for e in rep.entries:
            assert not e.zero and e.coeffs and e is not rel._zero(e.n)
        assert len({e.coeffs for e in rep.entries}) == 4

    def test_one_report_per_identity(self, point_reports):
        # the registry's sklyanin runner checks e = 2, the one value the report keys
        spec, reports = point_reports
        ids = [r.identity_id for r in reports]
        assert len(ids) == len(set(ids))
        if spec.family == fam.AW:
            [sk] = [r for r in reports if r.identity_id == "sklyanin"]
            assert sk.notes["e"] == "2"

    def test_pickled_reports_write_the_same_bytes(self, point_reports):
        import io
        import pickle

        from qaskey.report import build_report, dump_csv, dump_report

        _, reports = point_reports
        copy = pickle.loads(pickle.dumps(reports, pickle.HIGHEST_PROTOCOL))
        assert copy == reports
        # the round trip keeps the sharing within the blob
        assert len({id(r.params) for r in copy}) == len({id(r.params) for r in reports})
        zeros = {}
        for e in (e for r in copy for e in r.entries if e.zero):
            assert zeros.setdefault(e.n, e) is e
        for dump in (dump_report, dump_csv):
            texts = []
            for reps in (reports, copy):
                out = io.StringIO()
                dump(build_report(reps, 1, 16, timestamp=False), out)
                texts.append(out.getvalue())
            assert texts[0] == texts[1]


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

    @pytest.mark.parametrize("line,name", [("n-maxx=3", "n-maxx"), ("n_max=abc", "n_max"),
                                           ("no-timestamp = ture", "no-timestamp")])
    def test_bad_config_key_named(self, line, name, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert run(["verify", "--config", str(cfg)]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("value,stamped", [("1", False), ("TRUE", False), ("Yes", False),
                                               ("0", True), ("False", True), ("no", True)])
    def test_config_booleans(self, value, stamped, tmp_path):
        cfg, rep = tmp_path / "b.cfg", tmp_path / "r.json"
        cfg.write_text(f"no-timestamp={value}\nfamily=jacobi\nidentity=eq26\n"
                       f"samples=1\nn-max=1\nreport={rep}\n")
        assert run(["verify", "--config", str(cfg)]) == 0
        assert ("timestamp" in json.loads(rep.read_text())["run"]) == stamped

    def test_bad_family_in_config_names_the_flag(self, tmp_path, capsys):
        cfg, rep = tmp_path / "f.cfg", tmp_path / "r.json"
        cfg.write_text(f"family=foo\nreport={rep}\n")
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "argument --family: invalid choice: 'foo'" in capsys.readouterr().err
        assert not rep.exists()

    def test_config_serves_both_subcommands(self, tmp_path):
        # limits keys in a file read by verify, and verify keys read by limits
        rep, out = tmp_path / "r.json", tmp_path / "t.csv"
        cfg = tmp_path / "both.cfg"
        cfg.write_text("family=jacobi\nidentity=eq26\nsamples=1\nn-max=2\n"
                       "no-timestamp=true\neps-steps=2\n")
        assert run(["verify", "--config", str(cfg), "--report", str(rep)]) == 0
        assert run(["limits", "--which", "aw-to-bigq", "--config", str(cfg),
                    "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 3


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

    #: sha256 of each default table, pinned so that a change to the
    #: operators or constructions the limits read shows in its bytes
    LIMIT_DIGESTS = {
        "cqjacobi-to-jacobi": "3dcd10d83b456914f4cb7ff81b6d6531edc0ec64866a9f131de2b305008eb192",
        "aw-to-bigq": "d899ed9b60e625cd3904d2d7a42f88dd1585a1241702487eb10fa16631858871",
    }

    @pytest.mark.parametrize("which", sorted(LIMIT_DIGESTS))
    def test_default_table_digest(self, tmp_path, which):
        out = tmp_path / "t.csv"
        assert run(["limits", "--which", which, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.LIMIT_DIGESTS[which]

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

    @pytest.mark.parametrize("target,reason", [("missing/t.csv", "No such file or directory"),
                                               (".", "Is a directory"),
                                               ("", "No such file or directory")])
    def test_unwritable_out_names_the_flag(self, target, reason, tmp_path, capsys, monkeypatch):
        # found as verify finds an unwritable output, before the table is computed
        from qaskey import limits as lim

        def no_table(*_):
            raise AssertionError("the table was computed before --out was checked")

        monkeypatch.setattr(lim, "limit_cqjacobi_to_jacobi", no_table)
        out = tmp_path / target if target else ""
        assert run(["limits", "--which", "cqjacobi-to-jacobi", "--out", str(out)]) == 2
        assert f"error: --out {out}: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("flag", ["--a", "--q"])
    def test_zero_denominator_names_the_flag(self, flag, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run(["limits", "--which", "aw-to-bigq", flag, "1/0", "--out", str(out)]) == 2
        assert f"{flag} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,reason", [
        (["--a", "2", "--q", "1/2"], "degenerate denominator at n=1"),            # aq = 1
        (["--a", "8", "--b", "1", "--c", "1/3", "--q", "1/2", "--n", "1"],
         "degenerate denominator at n=3"),                                     # ab q^3 = 1
        (["--q", "3/2"], "q must lie in (0,1)"),
    ], ids=["aq-one", "abq3-one", "q-above-one"])
    def test_inadmissible_bigq_point_names_the_flags(self, argv, reason, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run(["limits", "--which", "aw-to-bigq", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --a ") and "--q " in err and reason in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,flags", [
        (["--alpha", "-1"], "--alpha -1 --beta 2: "),
        (["--beta", "-1"], "--alpha 1 --beta -1: "),
    ], ids=["alpha", "beta"])
    def test_inadmissible_jacobi_point_names_the_flags(self, argv, flags, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run(["limits", "--which", "cqjacobi-to-jacobi", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {flags}alpha and beta must exceed -1\n"
        assert not out.exists()

    def test_missing_which(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["limits"])
        assert exc.value.code == 2

    def test_which_from_config(self, tmp_path):
        cfg, out = tmp_path / "w.cfg", tmp_path / "t.csv"
        cfg.write_text("which=aw-to-bigq\neps-steps=2\n")
        assert run(["limits", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 3

    @pytest.mark.parametrize("lines", ["", "eps-steps=2\n"])
    def test_which_nowhere_names_the_flag(self, lines, tmp_path, capsys):
        argv = ["limits"]
        if lines:
            cfg = tmp_path / "n.cfg"
            cfg.write_text(lines)
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "--which" in capsys.readouterr().err

    def test_bad_which_in_config_names_the_flag(self, tmp_path, capsys):
        cfg, out = tmp_path / "w.cfg", tmp_path / "t.csv"
        cfg.write_text("which=aw-to-jacobi\n")
        with pytest.raises(SystemExit) as exc:
            run(["limits", "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        assert "--which" in capsys.readouterr().err
        assert not out.exists()

    def test_precision_flag_gone(self, capsys):
        # the q -> 1 table is exact, so there is no working precision to set
        with pytest.raises(SystemExit) as exc:
            run(["limits", "--which", "cqjacobi-to-jacobi", "--precision", "50"])
        assert exc.value.code == 2
        assert "--precision" in capsys.readouterr().err


def loaded_by_cli_import(modules) -> str:
    """Those of ``modules`` that ``import qaskey.cli`` loads, in a fresh
    interpreter."""
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import sys, qaskey.cli; "
         f"print(sorted(m for m in {list(modules)!r} if m in sys.modules))"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        check=True)
    return out.stdout.strip()


def test_report_to_closed_stdout_ends_quietly():
    # the report is written as it goes, so a reader that stops early
    # (`qaskey verify | head`) closes the pipe mid-report; about 400 kB,
    # more than a pipe holds, so the writer must meet the closed end
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "qaskey.cli", "verify", "--family", "jacobi",
         "--identity", "eq26", "--samples", "200", "--no-timestamp", "--report", "-"],
        env=dict(os.environ, PYTHONPATH=str(src)), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    assert proc.stdout.read(2) == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 0
    assert "Traceback" not in err and "BrokenPipe" not in err
    assert "PASS eq26" in err


def test_cli_import_leaves_out_mpmath():
    assert loaded_by_cli_import(["mpmath"]) == "[]"


def test_cli_import_leaves_out_limits_and_datetime():
    # only `limits` needs the limit harnesses, and only a timestamp needs datetime
    assert loaded_by_cli_import(["qaskey.limits", "datetime"]) == "[]"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # the records are NamedTuples and __slots__ classes; dataclasses would
    # also load inspect, ast, dis and tokenize on every cold start
    assert loaded_by_cli_import(["dataclasses", "inspect"]) == "[]"


def test_verify_loads_no_qaskey_module_mid_run(tmp_path):
    # every qaskey module is compiled when qaskey is imported: one first
    # loaded during a run (the q-difference solver, say, from
    # FamilyData.qdiff) would add its compile memory to the run's peak
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import sys, qaskey.cli; before = set(sys.modules); "
         "code = qaskey.cli.main(sys.argv[1:]); "
         "print(code, sorted(m for m in set(sys.modules) - before if m.startswith('qaskey')))",
         "verify", "--family", "all", "--identity", "all", "--samples", "1", "--n-max", "4",
         "--no-timestamp", "--report", str(tmp_path / "r.json")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        check=True)
    assert out.stdout.splitlines()[-1] == "0 []"


#: the most tokens one module of the package may hold
MODULE_TOKENS = 3500


def test_every_module_keeps_within_the_token_budget():
    # where the modules are compiled from source, the parser holds one
    # module's whole token array and syntax tree at a time, and the heap it
    # grows is not given back: the largest module's compile sets the peak
    # memory of `import qaskey.cli`, and so of every verify run
    import tokenize

    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    counts = {}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        with open(path, "rb") as fh:
            counts[path.name] = sum(tok.type not in layout
                                    for tok in tokenize.tokenize(fh.readline))
    assert len(counts) > 10
    assert {name: n for name, n in counts.items() if n > MODULE_TOKENS} == {}


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


class TestSweep:
    def test_ten_points_per_family_pass(self, tmp_path):
        # every identity on ten sampled points of every family, in-process
        rep = tmp_path / "sweep.json"
        assert run(["verify", "--family", "all", "--identity", "all", "--samples", "10",
                    "--seed", "0", "--no-timestamp", "--report", str(rep)]) == 0
        statuses = [r["status"] for r in json.loads(rep.read_text())["results"]]
        assert "fail" not in statuses
        assert (len(statuses), statuses.count("pass")) == (11600, 11540)


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

    # sha256 of every identity on one point per family at --n-max 30 and
    # seed 7, far past the degrees the pairing and orthogonality checks read
    DEEP_DIGEST = "4a14721c414697f4d5defb4121354d5924978cb01d1ba2278f010cb2fd5ee643"

    def test_deep_digest(self, tmp_path):
        rep = tmp_path / "deep.json"
        assert run(["verify", "--family", "all", "--identity", "all", "--samples", "1",
                    "--seed", "7", "--n-max", "30", "--no-timestamp",
                    "--report", str(rep)]) == 0
        assert hashlib.sha256(rep.read_bytes()).hexdigest() == self.DEEP_DIGEST

    # sha256 of the report and the CSV of a recorded failure: an error
    # entry (n null, residual with no coefficients) where the qdiff
    # derivation raises NoSolution at an Askey-Wilson point
    FAILING = ["verify", "--family", "askey-wilson", "--identity", "qdiff-derive",
               "--params", "a=-4/5,b=-1/2,c=-1/2,d=1/2,q=1/4", "--no-timestamp"]
    FAILING_DIGEST = "57049761410c1ca635a0bf6ab22c4c8b0457eacc3e6ee6eb0e8af96f7c67019a"
    FAILING_CSV_DIGEST = "b91c73291d7261e1fa614a4b5c6630433067b1110713a6dfaae83ab3dc825d2d"

    def test_failing_report_digest(self, tmp_path, capsys, monkeypatch):
        no_solution_in_qdiff_derive(monkeypatch)
        rep, csvp = tmp_path / "fail.json", tmp_path / "fail.csv"
        assert run([*self.FAILING, "--report", str(rep), "--csv", str(csvp)]) == 1
        assert hashlib.sha256(rep.read_bytes()).hexdigest() == self.FAILING_DIGEST
        assert hashlib.sha256(csvp.read_bytes()).hexdigest() == self.FAILING_CSV_DIGEST
        capsys.readouterr()
        assert run([*self.FAILING, "--report", "-"]) == 1
        assert capsys.readouterr().out.encode() == rep.read_bytes()
