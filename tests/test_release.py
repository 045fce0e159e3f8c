import math

import numpy as np
import pytest

from dpgibbs.distributions import sample_laplace
from dpgibbs.errors import ValidationError
from dpgibbs.release import (
    UNIT,
    Bounds,
    Budget,
    GaussianSummary,
    PrivateRelease,
    release,
    summarize,
)


class TestRescaling:
    def test_lead_example_values(self):
        ybar, s_sq = Bounds(0.0, 100.0).to_unit(32.08, 16.98 ** 2)
        assert ybar == pytest.approx(0.3208)
        assert s_sq == pytest.approx(0.028832, abs=1e-6)

    def test_unit_bounds_identity(self):
        assert UNIT.to_unit(0.4, 0.02) == (0.4, 0.02)

    def test_round_trip(self):
        bounds = Bounds(-3.0, 17.0)
        ybar, s_sq = bounds.from_unit(*bounds.to_unit(5.31, 8.2))
        assert ybar == pytest.approx(5.31, abs=1e-12)
        assert s_sq == pytest.approx(8.2, abs=1e-12)

    def test_from_unit_lead_values(self):
        ybar, s_sq = Bounds(0.0, 100.0).from_unit(0.3430, 0.4716 ** 2)
        assert ybar == pytest.approx(34.30)
        assert s_sq == pytest.approx(47.16 ** 2)

    def test_from_unit_identity(self):
        assert UNIT.from_unit(0.2, 0.01) == (0.2, 0.01)

    def test_maps_arrays_elementwise(self):
        bounds = Bounds(2.0, 52.0)
        mean, var = np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.01, 0.25])
        mapped = bounds.from_unit(mean, var)
        np.testing.assert_array_equal(mapped[0], [2.0, 27.0, 52.0])
        np.testing.assert_array_equal(mapped[1], [0.0, 25.0, 625.0])
        for got, want in zip(bounds.to_unit(*mapped), (mean, var)):
            np.testing.assert_allclose(got, want, atol=1e-15)

    def test_release_to_unit(self):
        rel = PrivateRelease(ybar_star=34.3, s_sq_star=-40.0, n=43,
                             budget=Budget(0.25, 0.25), bounds=Bounds(0.0, 100.0))
        unit = rel.to_unit()
        assert unit.bounds == UNIT and (unit.n, unit.budget) == (43, rel.budget)
        assert (unit.ybar_star, unit.s_sq_star) == Bounds(0.0, 100.0).to_unit(34.3, -40.0)


class TestRelease:
    def test_seeded_determinism(self):
        summary = GaussianSummary(ybar=32.08, s_sq=16.98 ** 2, n=43)
        bounds, budget = Bounds(0.0, 100.0), Budget(0.25, 0.25)
        r1 = release(summary, bounds, budget, np.random.default_rng(5))
        r2 = release(summary, bounds, budget, np.random.default_rng(5))
        assert r1 == r2

    def test_unbiasedness(self):
        summary = GaussianSummary(ybar=0.4, s_sq=0.03, n=50)
        budget = Budget(0.5, 0.5)
        rng = np.random.default_rng(0)
        draws = np.array([release(summary, UNIT, budget, rng).ybar_star
                          for _ in range(40_000)])
        scale = 1.0 / (budget.eps1 * summary.n)
        se = math.sqrt(2.0 * scale ** 2 / draws.size)
        assert abs(draws.mean() - summary.ybar) < 3 * se

    def test_direct_and_rescaled_paths_agree(self):
        # releasing on [a, b] directly equals unit-scale release mapped back,
        # when both consume the identical uniform stream
        bounds, n = Bounds(2.0, 52.0), 43
        summary = GaussianSummary(ybar=20.0, s_sq=30.0, n=n)
        budget = Budget(0.25, 0.25)
        via_unit = release(summary, bounds, budget, np.random.default_rng(123))
        rng = np.random.default_rng(123)
        direct_ybar = sample_laplace(summary.ybar, bounds.width / (budget.eps1 * n), rng)
        direct_s2 = sample_laplace(summary.s_sq, bounds.width ** 2 / (budget.eps2 * n), rng)
        assert via_unit.ybar_star == pytest.approx(direct_ybar, abs=1e-12)
        assert via_unit.s_sq_star == pytest.approx(direct_s2, rel=1e-12)

    def test_noise_scale_magnitude(self):
        summary = GaussianSummary(ybar=30.0, s_sq=280.0, n=43)
        rng = np.random.default_rng(8)
        devs = np.array([
            release(summary, Bounds(0.0, 100.0), Budget(0.25, 0.25), rng).ybar_star - 30.0
            for _ in range(20_000)
        ])
        # Laplace sd = sqrt(2) * scale with scale = 100 / (0.25 * 43)
        expected_sd = math.sqrt(2.0) * 100.0 / (0.25 * 43)
        assert abs(devs.std() - expected_sd) < 0.05 * expected_sd


class TestSummarize:
    def test_matches_numpy_moments(self):
        data = [0.1, 0.4, 0.3, 0.9, 0.5]
        s = summarize(data, UNIT)
        assert s.ybar == pytest.approx(np.mean(data))
        assert s.s_sq == pytest.approx(np.var(data, ddof=1))
        assert s.n == 5

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValidationError):
            summarize([0.5, 1.5], UNIT)
        with pytest.raises(ValidationError):
            summarize([5.0, 101.0], Bounds(0.0, 100.0))

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValidationError):
            summarize([0.5], UNIT)
        with pytest.raises(ValidationError):
            summarize([0.1, math.nan], UNIT)

    def test_data_derived_summary_is_feasible(self):
        from dpgibbs.feasible import stats_feasible

        rng = np.random.default_rng(3)
        for _ in range(50):
            data = rng.uniform(0.0, 1.0, size=rng.integers(2, 40))
            s = summarize(data, UNIT)
            assert stats_feasible(s.ybar, s.s_sq, s.n)


class TestJson:
    def test_round_trip(self):
        rel = PrivateRelease(ybar_star=34.3, s_sq_star=-12.0, n=43,
                             budget=Budget(0.25, 0.3), bounds=Bounds(0.0, 100.0))
        assert PrivateRelease.from_json(rel.to_json()) == rel

    def test_format_version_present(self):
        import json

        rel = PrivateRelease(ybar_star=0.1, s_sq_star=0.2, n=9,
                             budget=Budget(1.0, 1.0), bounds=UNIT)
        assert json.loads(rel.to_json())["format_version"] == 1

    def test_malformed_json_raises(self):
        with pytest.raises(ValidationError):
            PrivateRelease.from_json("{\"ybar_star\": 1.0}")
        with pytest.raises(ValidationError):
            PrivateRelease.from_json("not json")
