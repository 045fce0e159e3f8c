import numpy as np
import pytest

import dpgibbs.harness as harness
from dpgibbs.distributions import sample_trunc_normal_block
from dpgibbs.errors import ConfigurationError, SamplingError
from dpgibbs.gibbs import PriorSpec
from dpgibbs.harness import Scenario, generate_dataset, paper_scale, run_grid
from oracles import truncnorm_mean_quadrature


def small_scenario(**overrides):
    base = dict(n=60, eps1=0.25, eps2=0.25, truth_mu=0.5, truth_sigma=0.2,
                mode="unconstrained", prior=PriorSpec.flat(), reps=5, iters=400,
                base_seed=99)
    base.update(overrides)
    return Scenario(**base)


class TestGenerateDataset:
    def test_symmetric_truncation_keeps_mean(self, rng):
        s = generate_dataset(1_000_000, 0.5, 0.2, rng)
        assert abs(s.ybar - 0.5) < 0.001

    def test_values_inside_unit_interval(self, rng):
        # moments of bounded data satisfy the feasibility system
        from dpgibbs.feasible import stats_feasible

        for _ in range(20):
            s = generate_dataset(50, 0.3, 0.3, rng)
            assert stats_feasible(s.ybar, s.s_sq, s.n)

    def test_asymmetric_mean_matches_quadrature(self, rng):
        s = generate_dataset(1_000_000, 0.1, 0.04, rng)
        expected = truncnorm_mean_quadrature(0.1, 0.04)
        assert abs(s.ybar - expected) < 0.001

    def test_heavily_truncated_case(self, rng):
        s = generate_dataset(200_000, 0.1, 0.5, rng)
        expected = truncnorm_mean_quadrature(0.1, 0.5)
        assert abs(s.ybar - expected) < 0.005

    def test_moments_of_the_block_kernel(self):
        s = generate_dataset(500, 0.3, 0.25, np.random.default_rng(8))
        y = sample_trunc_normal_block(0.3, 0.25, 0.0, 1.0, 500, np.random.default_rng(8))
        assert (s.ybar, s.s_sq, s.n) == (float(y.mean()), float(y.var(ddof=1)), 500)


class TestRunScenario:
    def test_small_run_aggregates(self):
        [res] = run_grid([small_scenario()])
        assert 0.0 <= res.coverage <= 1.0
        assert res.avg_len > 0 and res.rmse >= 0
        assert res.errors == 0
        assert res.coverage_se == pytest.approx(np.sqrt(0.95 * 0.05 / 5))

    def test_modes_dispatch(self):
        for mode in ("unconstrained", "constrained", "likelihood"):
            [res] = run_grid([small_scenario(mode=mode, reps=2, iters=200, n=20)])
            assert res.errors == 0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            small_scenario(mode="bogus")

    def test_unsupported_configuration_rejected_before_any_replication(self):
        for mode in ("unconstrained", "constrained"):
            with pytest.raises(ConfigurationError, match="eps2"):
                small_scenario(mode=mode, n=10, eps2=1.9)
        small_scenario(mode="likelihood", n=10, eps2=1.9)
        for mode in ("unconstrained", "likelihood"):
            with pytest.raises(ConfigurationError, match="flat prior"):
                small_scenario(mode=mode, n=2)
        small_scenario(n=2, prior=PriorSpec.conjugate(0.5, 1.0, 1.0, 0.01))


class TestRunGrid:
    def test_parallelism_levels_byte_identical(self):
        grid = [small_scenario(reps=4, iters=200),
                small_scenario(mode="constrained", reps=4, iters=200, base_seed=7)]
        assert run_grid(grid, parallelism=1) == run_grid(grid, parallelism=2)

    def test_scenario_results_independent_of_grid_position(self):
        a = small_scenario(reps=3, iters=200, base_seed=1)
        b = small_scenario(mode="constrained", reps=3, iters=200, base_seed=2)
        res_ab = run_grid([a, b], parallelism=1)
        res_ba = run_grid([b, a], parallelism=1)
        assert res_ab == res_ba[::-1]

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            run_grid([], parallelism=1)

    def test_all_failed_scenario_is_a_configuration_error(self, monkeypatch):
        def failing_chain(*args, **kwargs):
            raise SamplingError("no draw")

        monkeypatch.setattr(harness, "run_chain", failing_chain)
        with pytest.raises(ConfigurationError):
            run_grid([small_scenario(reps=2)], parallelism=1)

    def test_programming_error_propagates(self, monkeypatch):
        def broken_chain(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(harness, "run_chain", broken_chain)
        with pytest.raises(TypeError):
            run_grid([small_scenario(reps=2)], parallelism=1)


def test_paper_scale_restores_published_sizes():
    s = paper_scale(small_scenario())
    assert s.reps == 10_000 and s.iters == 20_000


@pytest.mark.slow
@pytest.mark.parametrize("n", [30, 100])
def test_constrained_mode_rmse_dominates(n):
    # paired replications (shared base_seed -> shared datasets) of the mode
    # estimator's squared error; the constrained analysis may not be worse by
    # more than twice the paired standard error
    from dpgibbs.harness import _one_rep

    reps = 500
    sq_errors = {}
    for mode in ("constrained", "unconstrained"):
        s = Scenario(n=n, eps1=0.1, eps2=0.1, truth_mu=0.5, truth_sigma=0.2,
                     mode=mode, prior=PriorSpec.flat(), reps=reps, iters=5000,
                     base_seed=321)
        errs = []
        for r in range(reps):
            rec = _one_rep(s, r)
            assert rec is not None
            errs.append((rec.point - rec.truth) ** 2)
        sq_errors[mode] = np.asarray(errs)
    diff = sq_errors["constrained"] - sq_errors["unconstrained"]
    rmse_c = float(np.sqrt(sq_errors["constrained"].mean()))
    rmse_u = float(np.sqrt(sq_errors["unconstrained"].mean()))
    paired_se = float(diff.std(ddof=1) / np.sqrt(reps))
    assert diff.mean() <= 2.0 * paired_se, (
        f"constrained RMSE {rmse_c:.4f} exceeds unconstrained {rmse_u:.4f} "
        f"beyond the MC-error guard"
    )
