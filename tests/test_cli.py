import contextlib
import io
import json
import math
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpgibbs.harness as harness
import dpgibbs.regression as regression
import dpgibbs.validation as validation
from dpgibbs.cli import _scenario, main
from dpgibbs.errors import SamplingError

DATA_LINES = "value\n" + "\n".join(
    f"{v:.4f}" for v in np.clip(np.random.default_rng(0).normal(32, 17, 43), 0.5, 99.5)
)


@pytest.fixture
def lead_csv(tmp_path):
    path = tmp_path / "lead.csv"
    path.write_text(DATA_LINES + "\n")
    return str(path)


def run_cli(args):
    return main(list(args))


class TestRelease:
    def test_release_roundtrip(self, lead_csv, tmp_path):
        out = tmp_path / "rel.json"
        code = run_cli(["release", "--data", lead_csv, "--lower", "0",
                        "--upper", "100", "--eps1", "0.25", "--eps2", "0.25",
                        "--seed", "42", "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["n"] == 43
        assert obj["format_version"] == 1

    def test_out_of_bounds_data_exits_3(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\n50.0\n101.0\n")
        code = run_cli(["release", "--data", str(path), "--lower", "0",
                        "--upper", "100", "--eps1", "0.25", "--eps2", "0.25",
                        "--seed", "1", "--out", str(tmp_path / "x.json")])
        assert code == 3

    def test_same_seed_identical_bytes(self, lead_csv, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run_cli(["release", "--data", lead_csv, "--lower", "0",
                     "--upper", "100", "--eps1", "0.25", "--eps2", "0.25",
                     "--seed", "7", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


@pytest.fixture
def release_json(lead_csv, tmp_path):
    out = tmp_path / "rel.json"
    run_cli(["release", "--data", lead_csv, "--lower", "0", "--upper", "100",
             "--eps1", "0.25", "--eps2", "0.25", "--seed", "42", "--out", str(out)])
    return str(out)


class TestInfer:
    def test_moment_sampler_constrained(self, release_json, tmp_path):
        out = tmp_path / "draws.csv"
        code = run_cli(["infer", "--release", release_json, "--prior", "flat",
                        "--constrained", "--iters", "2000", "--seed", "5",
                        "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "# format_version=1"
        assert lines[1] == "t,mu,sigma_sq,ybar,s_sq"
        rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[2:]])
        # constrained draws respect the original-scale feasible region
        assert rows[:, 1].min() >= 0.0 and rows[:, 1].max() <= 100.0
        assert np.all(rows[:, 2] <= rows[:, 1] * (100.0 - rows[:, 1]) + 1e-9)

    def test_likelihood_sampler_dispatch(self, release_json, tmp_path):
        out = tmp_path / "draws.csv"
        code = run_cli(["infer", "--release", release_json, "--sampler",
                        "likelihood", "--constrained", "--iters", "300",
                        "--seed", "5", "--out", str(out)])
        assert code == 0

    def test_nig_prior_file(self, release_json, tmp_path):
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"kind": "nig", "mu0": 12.5, "kappa0": 1.0,
                                     "nu0": 1.0, "sigma0_sq": 14.44}))
        code = run_cli(["infer", "--release", release_json, "--prior", str(prior),
                        "--iters", "500", "--seed", "2",
                        "--out", str(tmp_path / "d.csv")])
        assert code == 0

    def test_missing_prior_file_exits_2(self, release_json, tmp_path):
        code = run_cli(["infer", "--release", release_json, "--prior",
                        str(tmp_path / "nope.json"), "--iters", "100",
                        "--seed", "1", "--out", str(tmp_path / "d.csv")])
        assert code == 2

    def test_determinism(self, release_json, tmp_path):
        texts = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run_cli(["infer", "--release", release_json, "--iters", "400",
                     "--seed", "9", "--out", str(out)])
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]


class TestRegress:
    def test_runs_on_bundled_demo(self, tmp_path):
        from importlib import resources

        demo = str(resources.files("dpgibbs").joinpath("data/demo_regression.csv"))
        out = tmp_path / "reg.csv"
        code = run_cli(["regress", "--data", demo, "--eps-per-query", "0.5",
                        "--iters", "400", "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "t,theta0,theta1,sigma_sq"

    def test_fallback_counts_reported_on_stderr(self, tmp_path, capsys):
        # a near-singular prior makes the chain project lambda_n onto the
        # PSD cone; the draws go to stdout as before, the counts to stderr
        from importlib import resources

        demo = str(resources.files("dpgibbs").joinpath("data/demo_regression.csv"))
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"mu0": [1.0, 0.0], "lambda0": [[1e-30, 0.0], [0.0, 1e-30]],
                                     "a0": 20.0, "b0": 0.5}))
        argv = ["regress", "--data", demo, "--eps-per-query", "0.1", "--iters", "3000",
                "--seed", "0"]
        assert run_cli(argv + ["--prior", str(prior)]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("# format_version=1\nt,theta0,theta1,sigma_sq\n")
        (line,) = err.splitlines()
        assert line.startswith("warning: fallback counts ")
        counts = json.loads(line.removeprefix("warning: fallback counts "))
        assert counts["lambda_psd_projected"] > 0
        assert run_cli(argv + ["--iters", "300"]) == 0
        assert capsys.readouterr().err == ""

    def test_stuck_chain_diagnostics_on_stderr(self, monkeypatch, capsys):
        from importlib import resources

        monkeypatch.setattr(regression, "_REJECTION_CAP", 20)
        demo = str(resources.files("dpgibbs").joinpath("data/demo_regression.csv"))
        code = run_cli(["regress", "--constrained", "--data", demo, "--eps-per-query", "1",
                        "--iters", "2000", "--seed", "2", "--out", "-"])
        assert code == 4
        error, diagnostics = capsys.readouterr().err.splitlines()
        assert error.startswith("error: statistic imputation stuck on the ")
        diagnostics = json.loads(diagnostics)
        assert diagnostics["attempts"] == 20
        assert sum(diagnostics["fails"].values()) == 20

    @pytest.mark.parametrize("mode", [[], ["--constrained"]], ids=["unconstrained", "constrained"])
    def test_eps_per_query_1e150_gives_finite_draws(self, tmp_path, mode):
        """The per-query noise scales' inverse-Gaussian draws stay finite (they overflowed
        to inf, and the run exited 4)."""
        out = tmp_path / "draws.csv"
        code, err = run_quietly(_demo_regress("--eps-per-query", "1e150", *mode,
                                              "--out", str(out)))
        assert code == 0 and not err
        rows = out.read_text().splitlines()[2:]
        assert rows and all(math.isfinite(float(c)) for row in rows for c in row.split(","))

    def test_malformed_data_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1.0\n")
        code = run_cli(["regress", "--data", str(bad), "--eps-per-query", "0.5",
                        "--iters", "100", "--seed", "1",
                        "--out", str(tmp_path / "r.csv")])
        assert code == 3


class TestSimulate:
    def grid_file(self, tmp_path, scenarios):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"format_version": 1, "scenarios": scenarios}))
        return str(path)

    def scenario_dict(self, **over):
        base = {"n": 40, "eps1": 0.25, "eps2": 0.25, "truth_mu": 0.5,
                "truth_sigma": 0.2, "mode": "unconstrained",
                "prior": {"kind": "flat"}, "reps": 3, "iters": 200,
                "base_seed": 11}
        base.update(over)
        return base

    def test_grid_runs_and_is_deterministic(self, tmp_path):
        grid = self.grid_file(tmp_path, [self.scenario_dict()])
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run_cli(["simulate", "--grid", grid, "--out", str(out1)]) == 0
        assert run_cli(["simulate", "--grid", grid, "--parallelism", "2",
                        "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_results_csv_header_and_row(self, tmp_path):
        scenario = self.scenario_dict(reps=2, iters=100)
        out = tmp_path / "r.csv"
        assert run_cli(["simulate", "--grid", self.grid_file(tmp_path, [scenario]),
                        "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "# format_version=1"
        assert lines[1] == "n,eps,mode,prior,mu_true,coverage,coverage_se,avg_len,rmse,errors"
        [res] = harness.run_grid([_scenario(scenario)])
        cells = lines[2].split(",")
        assert len(lines) == 3 and cells[:5] + cells[9:] == [
            "40", "0.5", "unconstrained", "flat", "0.5", "0"]
        assert [float(c) for c in cells[5:9]] == [res.coverage, res.coverage_se,
                                                  res.avg_len, res.rmse]

    def test_empty_grid_exits_2(self, tmp_path):
        grid = self.grid_file(tmp_path, [])
        assert run_cli(["simulate", "--grid", grid,
                        "--out", str(tmp_path / "r.csv")]) == 2

    def test_all_failed_scenario_exits_2(self, tmp_path, monkeypatch, capsys):
        def failing_chain(*args, **kwargs):
            raise SamplingError("no draw")

        monkeypatch.setattr(harness, "run_chain", failing_chain)
        grid = self.grid_file(tmp_path, [self.scenario_dict()])
        assert run_cli(["simulate", "--grid", grid,
                        "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert "every replication of the scenario failed" in err
        for field in ("n=40", "mode=unconstrained", "eps1=0.25", "eps2=0.25", "base_seed=11"):
            assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_parallelism_below_one_exits_2(self, tmp_path, value):
        grid = self.grid_file(tmp_path, [self.scenario_dict()])
        code, err = run_quietly(["simulate", "--grid", grid, "--parallelism", value,
                                 "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "argument --parallelism: must be a positive integer" in err
        assert not (tmp_path / "r.csv").exists()

    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        three, one = (_scenario(self.scenario_dict(reps=reps, iters=50)) for reps in (3, 1))
        assert harness.run_grid([three], parallelism=64) == harness.run_grid([three])
        assert harness.run_grid([one], parallelism=8) == harness.run_grid([one])
        assert started == [3]  # the one-task grid ran serially

    @pytest.mark.parametrize("over, cause", [
        ({"n": 10, "eps2": 1.9}, "error: eps2 = 1.9 >= 2(n-1)/n = 1.8"),
        ({"n": 2}, "error: the flat prior needs n >= 3"),
    ])
    def test_configuration_error_names_its_cause(self, tmp_path, capsys, over, cause):
        grid = self.grid_file(tmp_path, [self.scenario_dict(**over)])
        assert run_cli(["simulate", "--grid", grid, "--out", str(tmp_path / "r.csv")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(cause)

    def test_eps2_limit_spares_the_likelihood_sampler(self, tmp_path):
        grid = self.grid_file(tmp_path, [self.scenario_dict(
            n=10, eps2=1.9, mode="likelihood", reps=2, iters=50)])
        assert run_cli(["simulate", "--grid", grid, "--out", str(tmp_path / "r.csv")]) == 0

    def test_fig2_preset_loads(self):
        from importlib import resources

        text = resources.files("dpgibbs").joinpath("presets/fig2.json").read_text()
        obj = json.loads(text)
        assert len(obj["scenarios"]) == 16


class TestSummarize:
    def test_summary_fields(self, release_json, tmp_path):
        draws = tmp_path / "draws.csv"
        run_cli(["infer", "--release", release_json, "--iters", "2000",
                 "--seed", "3", "--out", str(draws)])
        out = tmp_path / "summary.json"
        code = run_cli(["summarize", "--draws", str(draws), "--column", "mu",
                        "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert set(obj) == {"format_version", "column", "mode", "hpd_lo",
                            "hpd_hi", "mean", "sd"}
        assert obj["hpd_lo"] <= obj["mode"] <= obj["hpd_hi"]

    def test_unknown_column_exits_3(self, release_json, tmp_path):
        draws = tmp_path / "draws.csv"
        run_cli(["infer", "--release", release_json, "--iters", "500",
                 "--seed", "3", "--out", str(draws)])
        assert run_cli(["summarize", "--draws", str(draws), "--column",
                        "bogus", "--out", str(tmp_path / "s.json")]) == 3


class TestValidateCommand:
    @pytest.mark.slow
    def test_validate_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(["validate", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert any("rel_err" in c for c in report["checks"])

    def test_injected_fault_exits_nonzero(self, tmp_path, monkeypatch):
        def stub(passed):
            return lambda: [{"name": "stub", "rel_err": 0.0, "passed": passed}]

        for name in ("check_evidence_grid", "check_divergence_growth", "check_matching",
                     "check_tgm_lambda0"):
            monkeypatch.setattr(validation, name, stub(True))
        monkeypatch.setattr(validation, "check_tgm_posterior_oracle", stub(False))
        out = tmp_path / "report.json"
        assert run_cli(["validate", "--out", str(out)]) == 4
        assert json.loads(out.read_text())["passed"] is False


def test_console_entry_point_usage_exit():
    proc = subprocess.run([sys.executable, "-m", "dpgibbs", "definitely-not-a-command"],
                          capture_output=True)
    assert proc.returncode == 2


# -- malformed input: every bad flag or file is exit 2 or 3 (4 for draws that overflow on
# the bounds), never a traceback --

RELEASE = {"format_version": 1, "ybar_star": 34.3, "s_sq_star": 2224.0, "n": 43,
           "eps1": 0.25, "eps2": 0.25, "a": 0.0, "b": 100.0}
NIG_PRIOR = {"kind": "nig", "mu0": 12.5, "kappa0": 1.0, "nu0": 1.0, "sigma0_sq": 14.44}
REG_PRIOR = {"mu0": [1.0, 0.0], "lambda0": [[0.25, 0.0], [0.0, 0.25]], "a0": 20.0, "b0": 0.5}
SCENARIO = {"n": 40, "eps1": 0.25, "eps2": 0.25, "truth_mu": 0.5, "truth_sigma": 0.2,
            "mode": "unconstrained", "reps": 2, "iters": 50, "base_seed": 11}
DRAWS_CSV = "# format_version=1\nt,mu\n" + "".join(f"{t},{0.1 * t}\n" for t in range(50))
# a release on [0, 1e154]: (b - a)^2 = 1e308 is finite, but unconstrained sigma_sq draws
# of order 1 on [0, 1] overflow when mapped back
OVERFLOWING = {**RELEASE, "ybar_star": 5e153, "s_sq_star": 5e307, "n": 50, "eps1": 0.01,
               "eps2": 0.01, "b": 1e154}


def _infer(release, *extra):
    return ["infer", "--release", release, "--iters", "50", "--seed", "1", *extra]


def _release_cmd(data, lower="0", upper="100", eps1="0.25"):
    return ["release", "--data", data, "--lower", lower, "--upper", upper,
            "--eps1", eps1, "--eps2", "0.25", "--seed", "1"]


def _grid(write, body):
    return ["simulate", "--grid", write("grid.json", body)]


def _demo_regress(*extra):
    demo = str(resources.files("dpgibbs").joinpath("data/demo_regression.csv"))
    return ["regress", "--data", demo, "--iters", "50", "--seed", "1", *extra]


def _regress(write, **prior):
    return ["regress", "--data", write("xy.csv", "x,y\n0,1\n1,3\n2,2\n3,5\n"),
            "--eps-per-query", "1", "--iters", "50", "--seed", "1",
            "--prior", write("p.json", {**REG_PRIOR, **prior})]


# name -> (exit code, argv built from write(name, body) -> path)
MALFORMED = {
    "release JSON non-numeric field": (3, lambda w: _infer(w("r.json", {**RELEASE, "n": "abc"}))),
    "release JSON eps1 = 0": (3, lambda w: _infer(w("r.json", {**RELEASE, "eps1": 0}))),
    "prior JSON non-numeric mu0": (3, lambda w: _infer(
        w("r.json", RELEASE), "--prior", w("p.json", {**NIG_PRIOR, "mu0": "abc"}))),
    "prior JSON kappa0 < 0": (3, lambda w: _infer(
        w("r.json", RELEASE), "--prior", w("p.json", {**NIG_PRIOR, "kappa0": -1.0}))),
    "infer --iters 0": (2, lambda w: ["infer", "--release", w("r.json", RELEASE),
                                      "--iters", "0", "--seed", "1"]),
    "infer --thin 0": (2, lambda w: _infer(w("r.json", RELEASE), "--thin", "0")),
    "infer --burn-in >= iters": (2, lambda w: _infer(w("r.json", RELEASE), "--burn-in", "50")),
    "release --eps1 0": (2, lambda w: _release_cmd(w("d.csv", DATA_LINES), eps1="0")),
    "release --lower > --upper": (2, lambda w: _release_cmd(
        w("d.csv", DATA_LINES), lower="100", upper="0")),
    "regress --eps-per-query 0": (2, lambda w: [
        "regress", "--data", w("xy.csv", "x,y\n0,1\n1,3\n2,2\n3,5\n"),
        "--eps-per-query", "0", "--iters", "50", "--seed", "1"]),
    "summarize --mass 1.5": (2, lambda w: ["summarize", "--draws", w("d.csv", DRAWS_CSV),
                                           "--mass", "1.5"]),
    "summarize non-numeric cell": (3, lambda w: ["summarize", "--draws",
                                                 w("d.csv", DRAWS_CSV + "50,abc\n")]),
    "grid nig prior without mu0": (3, lambda w: _grid(w, {"scenarios": [
        {**SCENARIO, "prior": {k: v for k, v in NIG_PRIOR.items() if k != "mu0"}}]})),
    "grid truncated JSON": (3, lambda w: _grid(w, json.dumps({"scenarios": [SCENARIO]})[:40])),
    "grid scenarios = 5": (3, lambda w: _grid(w, {"scenarios": 5})),
    "grid list of non-objects": (3, lambda w: _grid(w, {"scenarios": [1, 2]})),
    "grid n = 'ten'": (3, lambda w: _grid(w, {"scenarios": [{**SCENARIO, "n": "ten"}]})),
    "grid reps = '3.5'": (3, lambda w: _grid(w, {"scenarios": [{**SCENARIO, "reps": "3.5"}]})),
    "grid unknown prior kind": (3, lambda w: _grid(w, {"scenarios": [
        {**SCENARIO, "prior": {"kind": "bogus"}}]})),
    "grid eps1 = 0": (2, lambda w: _grid(w, {"scenarios": [{**SCENARIO, "eps1": 0}]})),
    "grid n = 1": (2, lambda w: _grid(w, {"scenarios": [{**SCENARIO, "n": 1}]})),
    "grid iters = 5": (2, lambda w: _grid(w, {"scenarios": [{**SCENARIO, "iters": 5}]})),
    "release JSON NaN statistic": (3, lambda w: _infer(
        w("r.json", {**RELEASE, "ybar_star": float("nan")}))),
    "release JSON n = 0": (3, lambda w: _infer(w("r.json", {**RELEASE, "n": 0}),
                                              "--prior", w("p.json", NIG_PRIOR))),
    "release --eps1 inf": (2, lambda w: _release_cmd(w("d.csv", DATA_LINES), eps1="inf")),
    "input is a directory": (3, lambda w: _release_cmd(str(Path(w("d.csv", "")).parent))),
    "grid truth_sigma NaN": (2, lambda w: _grid(w, {"scenarios": [
        {**SCENARIO, "truth_sigma": float("nan")}]})),
    "grid truth_sigma Infinity": (2, lambda w: _grid(w, {"scenarios": [
        {**SCENARIO, "truth_sigma": float("inf")}]})),
    "summarize nan cell": (3, lambda w: ["summarize", "--draws",
                                         w("d.csv", DRAWS_CSV + "50,nan\n")]),
    "summarize inf cell": (3, lambda w: ["summarize", "--draws",
                                         w("d.csv", DRAWS_CSV + "50,inf\n")]),
    **{f"prior JSON {k} Infinity": (3, lambda w, k=k: _infer(
        w("r.json", RELEASE), "--prior", w("p.json", {**NIG_PRIOR, k: float("inf")})))
       for k in ("kappa0", "nu0", "sigma0_sq")},
    "grid nig prior kappa0 Infinity": (3, lambda w: _grid(w, {"scenarios": [
        {**SCENARIO, "prior": {**NIG_PRIOR, "kappa0": float("inf")}}]})),
    "regress prior a0 Infinity": (3, lambda w: _regress(w, a0=float("inf"))),
    "regress prior b0 Infinity": (3, lambda w: _regress(w, b0=float("inf"))),
    "regress prior mu0 Infinity": (3, lambda w: _regress(w, mu0=[float("inf"), 0.0])),
    "regress prior mu0 NaN": (3, lambda w: _regress(w, mu0=[float("nan"), 0.0])),
    "release JSON (b - a)^2 overflows": (3, lambda w: _infer(
        w("r.json", {**RELEASE, "n": 50, "a": -1e300, "b": 1e300}))),
    "release JSON (b - a)^2 underflows": (3, lambda w: _infer(
        w("r.json", {**RELEASE, "n": 50, "a": 0.0, "b": 1e-300}))),
    "release --upper 1e300": (2, lambda w: _release_cmd(w("d.csv", DATA_LINES), upper="1e300")),
    **{f"infer --sampler {s} sigma_sq overflows on the bounds": (4, lambda w, s=s: _infer(
        w("r.json", OVERFLOWING), "--sampler", s)) for s in ("moment", "likelihood")},
    # finite hyperparameters whose mu precision or sigma_sq rate overflow mid-chain
    **{f"prior JSON kappa0 1e308{c}": (4, lambda w, c=c: _infer(
        w("r.json", RELEASE), "--prior", w("p.json", {**NIG_PRIOR, "kappa0": 1e308}),
        *c.split())) for c in ("", " --constrained")},
    "prior JSON mu0 1e300": (4, lambda w: _infer(
        w("r.json", RELEASE), "--prior", w("p.json", {**NIG_PRIOR, "mu0": 1e300}))),
    "release JSON eps1 1e300": (4, lambda w: _infer(w("r.json", {**RELEASE, "eps1": 1e300}))),
    "release JSON ybar_star 1e300": (4, lambda w: _infer(
        w("r.json", {**RELEASE, "ybar_star": 1e300}))),
    # (eps1 n)^2 underflows to 0: the collapsed sampler's 1/omega_sq has no rate
    **{f"release JSON eps1 1e-300{p}{c}": (2, lambda w, p=p, c=c: _infer(
        w("r.json", {**RELEASE, "eps1": 1e-300}),
        *(["--prior", w("p.json", NIG_PRIOR)] if p else []), *c.split()))
       for p in ("", " nig") for c in ("", " --constrained")},
    "grid eps1 1e-300": (2, lambda w: _grid(w, {"scenarios": [{**SCENARIO, "eps1": 1e-300}]})),
    **{f"regress --eps-per-query {e}": (2, lambda w, e=e: _demo_regress("--eps-per-query", e))
       for e in ("1e-300", "1e300")},
    "regress prior mu0 1e300": (4, lambda w: _demo_regress(
        "--eps-per-query", "1", "--prior", w("p.json", {**REG_PRIOR, "mu0": [1e300, 0.0]}))),
    # finite statistics and hyperparameters that overflow or underflow on [0, 1]
    "release JSON s_sq_star overflows on [0, 1]": (3, lambda w: _infer(
        w("r.json", {**RELEASE, "ybar_star": 0.0, "s_sq_star": 1.0, "a": -1e-158, "b": 0.0}))),
    "prior JSON mu0 overflows on [0, 1]": (3, lambda w: _infer(
        w("r.json", {**RELEASE, "b": 0.5}), "--prior",
        w("p.json", {**NIG_PRIOR, "mu0": 1.7976931348623157e308}))),
    "prior JSON sigma0_sq underflows on [0, 1]": (3, lambda w: _infer(
        w("r.json", RELEASE), "--prior", w("p.json", {**NIG_PRIOR, "sigma0_sq": 5e-324}))),
    # integer fields are not truncated
    "release JSON n = 43.7": (3, lambda w: _infer(w("r.json", {**RELEASE, "n": 43.7}))),
    **{f"grid {k} = {v}": (3, lambda w, k=k, v=v: _grid(w, {"scenarios": [{**SCENARIO, k: v}]}))
       for k, v in (("n", 30.9), ("reps", 1.7), ("iters", 300.2), ("base_seed", 1.5),
                    ("reps", True))},
}


def _writer(directory):
    def write(name, body):
        path = directory / name
        path.write_text(body if isinstance(body, str) else json.dumps(body))
        return str(path)
    return write


def run_quietly(argv):
    """Exit code and stderr of one in-process CLI call; an uncaught exception propagates."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exit_code(name, tmp_path):
    expected, build = MALFORMED[name]
    code, err = run_quietly(build(_writer(tmp_path)) + ["--out", str(tmp_path / "out")])
    lines = err.splitlines()
    assert code == expected
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


_BAD_VALUES = st.sampled_from(["abc", "", None, [], {}, -1, 0, 0.5, 5, "3.5"])


def _json_body(valid: dict):
    """`valid` as JSON text with one field replaced or dropped, cut short, or replaced whole."""
    text = json.dumps(valid)
    field = st.sampled_from(sorted(valid))
    return st.one_of(
        st.just(text),
        st.builds(lambda k, v: json.dumps({**valid, k: v}), field, _BAD_VALUES),
        field.map(lambda k: json.dumps({x: y for x, y in valid.items() if x != k})),
        st.integers(0, len(text) - 1).map(lambda cut: text[:cut]),
        _BAD_VALUES.map(json.dumps),
    )


def _csv_body(rows, junk=("abc", "", "# c", ",", "1,abc", "x,y", "nan")):
    return st.lists(st.sampled_from(list(rows) + list(junk)), max_size=70).map("\n".join)


_FLOAT_FLAGS = st.sampled_from(["0", "-1", "0.25", "1", "nan", "inf"])
_SEEDS = st.integers(-2, 5).map(str)
_ITERS = st.integers(-2, 50).map(str)
_CASES = {
    "release": st.tuples(
        st.fixed_dictionaries({"d.csv": _csv_body(["value", "12.5", "40", "99.9", "0", "100"])}),
        st.builds(lambda lo, hi, e1, e2, seed: [
            "release", "--data", "d.csv", "--lower", lo, "--upper", hi, "--eps1", e1,
            "--eps2", e2, "--seed", seed], st.sampled_from(["0", "50", "nan"]),
            st.sampled_from(["100", "-1", "inf"]), _FLOAT_FLAGS, _FLOAT_FLAGS, _SEEDS)),
    "infer": st.tuples(
        st.fixed_dictionaries({"r.json": _json_body(RELEASE), "p.json": _json_body(NIG_PRIOR)}),
        st.builds(lambda iters, seed, *extra: [
            "infer", "--release", "r.json", "--iters", iters, "--seed", seed,
            *[a for flags in extra for a in flags]], _ITERS, _SEEDS,
            st.sampled_from([[], ["--prior", "p.json"], ["--prior", "flat"]]),
            st.sampled_from([[], ["--constrained"]]),
            st.sampled_from([[], ["--sampler", "likelihood"]]),
            st.sampled_from([[], ["--thin", "0"], ["--thin", "3"], ["--burn-in", "-1"],
                             ["--burn-in", "10"], ["--burn-in", "60"]]))),
    "regress": st.tuples(
        st.fixed_dictionaries({
            "xy.csv": _csv_body(["x,y", "0,1", "1,3", "2,2", "3,5", "0.5,4", "7"]),
            "p.json": _json_body(REG_PRIOR)}),
        st.builds(lambda eps, iters, seed, extra: [
            "regress", "--data", "xy.csv", "--eps-per-query", eps, "--iters", iters,
            "--seed", seed, *extra], _FLOAT_FLAGS, _ITERS, _SEEDS,
            st.sampled_from([[], ["--prior", "p.json"], ["--burn-in", "49"]]))),
    "simulate": st.tuples(
        st.fixed_dictionaries({"g.json": st.one_of(
            _json_body(SCENARIO).map(lambda s: '{"scenarios": [' + s + "]}"),
            _json_body(NIG_PRIOR).map(
                lambda p: '{"scenarios": [' + json.dumps(SCENARIO)[:-1] + ', "prior": ' + p + "}]}"),
            _json_body({"scenarios": [SCENARIO]}))}),
        st.just(["simulate", "--grid", "g.json"])),
    "summarize": st.tuples(
        st.fixed_dictionaries({"d.csv": _csv_body(
            ["t,mu", "# format_version=1"] + [f"{t},{t * 0.3 % 1}" for t in range(40)])}),
        st.builds(lambda mass, column: ["summarize", "--draws", "d.csv", "--mass", mass,
                                        "--column", column],
                  st.sampled_from(["-0.5", "0", "0.5", "0.95", "1", "1.5", "nan"]),
                  st.sampled_from(["mu", "t", "bogus"]))),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", sorted(_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fuzzed_input_never_tracebacks(command, fuzz_dir, data):
    """Malformed files and out-of-range flags end in exit 0, 2, 3 or 4."""
    files, argv = data.draw(_CASES[command])
    write = _writer(fuzz_dir)
    paths = {name: write(name, body) for name, body in files.items()}
    code, err = run_quietly([paths.get(a, a) for a in argv]
                            + ["--out", str(fuzz_dir / "out")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err


# -- finite extremes: every float field of the release and of a conjugate prior --

_FINITE_EXTREMES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([1.0, -1.0]),
              st.floats(-308.0, 308.0)),
    st.floats(-3.0, 3.0))


def _field(value):
    """`value`, or in one draw of four a finite extreme."""
    return st.integers(0, 3).flatmap(lambda k: _FINITE_EXTREMES if k == 0 else st.just(value))


@st.composite
def _extreme_infer(draw):
    sampler = draw(st.sampled_from(["moment", "likelihood"]))
    # the latent-value sampler holds n doubles, so its n stays small
    n = draw(st.sampled_from([3, 4, 43, 10 ** 6, 10 ** 7] if sampler == "moment"
                             else [3, 4, 43, 10 ** 4]))
    limit = 2.0 * (n - 1.0) / n
    release = {"format_version": 1, "n": n,
               **{k: draw(_field(RELEASE[k]))
                  for k in ("ybar_star", "s_sq_star", "eps1", "a", "b")},
               "eps2": draw(st.one_of(_field(RELEASE["eps2"]), st.sampled_from(
                   [limit, math.nextafter(limit, 0.0), limit * (1.0 - 1e-9)])))}
    prior = draw(st.one_of(st.none(), st.fixed_dictionaries(
        {"kind": st.just("nig"), **{k: _field(NIG_PRIOR[k]) for k in NIG_PRIOR if k != "kind"}})))
    mode = draw(st.sampled_from([[], ["--constrained"]]))
    return release, prior, ["--sampler", sampler, *mode]


@pytest.mark.slow
@settings(max_examples=150, deadline=None, derandomize=True)
@given(_extreme_infer())
def test_infer_at_finite_extremes(fuzz_dir, case):
    """Finite extremes in the release and prior end in exit 0, 2, 3 or 4, and a run that
    exits 0 writes only finite draws."""
    release, prior, extra = case
    write, out = _writer(fuzz_dir), fuzz_dir / "draws.csv"
    out.unlink(missing_ok=True)
    prior_args = ["--prior", write("p.json", prior)] if prior else []
    code, err = run_quietly(_infer(write("r.json", release), *prior_args, *extra)
                            + ["--out", str(out)])
    assert code in (0, 2, 3, 4), err
    if code == 0:
        rows = out.read_text().splitlines()[2:]
        assert rows and all(math.isfinite(float(c)) for row in rows for c in row.split(","))


# -- finite extremes: every float field of a regression prior, and the per-query budget --

@st.composite
def _extreme_regress(draw):
    off_diagonal = draw(_field(0.0))  # mirrored, as lambda0 must be symmetric
    prior = {"mu0": [draw(_field(v)) for v in REG_PRIOR["mu0"]],
             "lambda0": [[draw(_field(0.25)), off_diagonal], [off_diagonal, draw(_field(0.25))]],
             "a0": draw(_field(REG_PRIOR["a0"])), "b0": draw(_field(REG_PRIOR["b0"]))}
    # constrained chains on the demo data complete at eps 10 per query
    return prior, draw(_field(10.0)), draw(st.sampled_from([[], ["--constrained"]]))


_MAX = 1.7976931348623157e308


@pytest.mark.slow
@settings(max_examples=200, deadline=None, derandomize=True)
@given(_extreme_regress())
# these raised ValueError or OverflowError: lambda_n overflowed as it was symmetrized,
# sigma_sq ** 2 overflowed, and 1 / (a precision draw of inf) gave sigma_sq = 0
@example(({**REG_PRIOR, "lambda0": [[_MAX, 0.0], [0.0, 0.25]]}, 10.0, []))
@example(({**REG_PRIOR, "b0": _MAX}, 10.0, []))
@example(({**REG_PRIOR, "mu0": [0.0, 0.0], "a0": _MAX}, 10.0, []))
def test_regress_at_finite_extremes(fuzz_dir, case):
    """Finite extremes in the regression prior and --eps-per-query end in exit 0, 2, 3 or 4,
    and a run that exits 0 writes only finite draws.  A rejection cap of 1 000 makes a stuck
    constrained chain exit 4 at once rather than after 10**6 attempts."""
    prior, eps, mode = case
    write, out = _writer(fuzz_dir), fuzz_dir / "draws.csv"
    out.unlink(missing_ok=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regression, "_REJECTION_CAP", 1000)
        code, err = run_quietly(_demo_regress("--eps-per-query", repr(eps), *mode, "--prior",
                                              write("p.json", prior), "--out", str(out)))
    assert code in (0, 2, 3, 4), err
    if code == 0:
        rows = out.read_text().splitlines()[2:]
        assert rows and all(math.isfinite(float(c)) for row in rows for c in row.split(","))
