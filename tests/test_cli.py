import json
import subprocess
import sys

import numpy as np
import pytest

import dpgibbs.harness as harness
from dpgibbs.cli import main
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
        assert "Traceback" not in err

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

    @pytest.mark.slow
    def test_injected_fault_exits_nonzero(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(["validate", "--inject-fault", "--out", str(out)]) == 4
        assert json.loads(out.read_text())["passed"] is False


def test_console_entry_point_usage_exit():
    proc = subprocess.run([sys.executable, "-m", "dpgibbs", "definitely-not-a-command"],
                          capture_output=True)
    assert proc.returncode == 2
