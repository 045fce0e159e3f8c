import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgibbs.feasible import (
    RegTheta,
    mean_window,
    pair_feasible,
    regression_stats_feasible,
    regression_theta_feasible,
    stats_feasible,
)
from dpgibbs.validation import ks_distance
from oracles import beta22_cdf


class TestParameterBounds:
    def test_center_gives_quarter(self):
        assert pair_feasible(0.5, 0.25)
        assert not pair_feasible(0.5, math.nextafter(0.25, 1.0))

    def test_degenerate_endpoints(self):
        for mu in (0.0, 1.0):
            assert pair_feasible(mu, 0.0)
            assert not pair_feasible(mu, math.ulp(0.0))

    def test_off_center(self):
        assert pair_feasible(0.1, 0.09 - 1e-12)
        assert not pair_feasible(0.1, 0.09 + 1e-12)

    def test_mu_range_boundary_collapse(self):
        assert mean_window(0.25) == (0.5, 0.5)

    def test_mu_range_zero_variance(self):
        assert mean_window(0.0) == (0.0, 1.0)

    def test_mu_range_inverts_sigma_bound(self):
        lo, hi = mean_window(0.09)
        assert lo == pytest.approx(0.1)
        assert hi == pytest.approx(0.9)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_inverse_pair_property(self, mu):
        # boundary consistency; the window is exact, so the caller-side
        # slack for sqrt rounding is applied explicitly here
        cap = mu * (1.0 - mu)
        assert pair_feasible(mu, cap)
        lo, hi = mean_window(min(cap, 0.25))
        assert lo - 1e-12 <= mu <= hi + 1e-12


class TestStatisticBounds:
    def test_two_point_dataset_attains_bound(self):
        data = np.array([0.0, 1.0])
        s_sq = float(data.var(ddof=1))
        assert data.mean() == 0.5
        assert stats_feasible(0.5, s_sq, 2)
        assert not stats_feasible(0.5, math.nextafter(s_sq, 1.0), 2)

    def test_degenerate_mean(self):
        for n in (2, 5, 100):
            assert stats_feasible(0.0, 0.0, n)
            assert not stats_feasible(0.0, math.ulp(0.0), n)

    def test_large_n_limit(self):
        assert stats_feasible(0.5, 0.25, 10 ** 9)
        assert not stats_feasible(0.5, 0.25 + 1e-8, 10 ** 9)

    def test_ybar_range_zero_variance(self):
        assert mean_window((7 - 1.0) / 7 * 0.0) == (0.0, 1.0)

    def test_ybar_range_boundary(self):
        n = 11
        assert mean_window((n - 1.0) / n * (n / (n - 1.0) * 0.25)) == (0.5, 0.5)

    @given(st.floats(0.5, 1.0), st.integers(2, 60))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_upper_branch(self, ybar, n):
        hi = n / (n - 1.0) * ybar * (1.0 - ybar)
        assert stats_feasible(ybar, hi, n)
        # rounding may push the bound a few ulps past exact feasibility
        while (n - 1.0) / n * hi > 0.25:
            hi = math.nextafter(hi, 0.0)
        assert mean_window((n - 1.0) / n * hi)[1] == pytest.approx(ybar, abs=1e-7)

    def test_enumeration_oracle_small_datasets(self):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        for n in (2, 3, 4):
            for data in itertools.product(grid, repeat=n):
                y = np.array(data)
                ybar = float(y.mean())
                s_sq = float(y.var(ddof=1))
                assert stats_feasible(ybar, s_sq, n)
                lo, hi = mean_window(min((n - 1.0) / n * s_sq, 0.25))
                assert lo - 1e-12 <= ybar <= hi + 1e-12
                # sample variance respects the population cap up to the n/(n-1) factor
                assert s_sq <= 0.25 * n / (n - 1.0) + 1e-12


class TestPairPredicates:
    def test_pair_feasible_examples(self):
        assert pair_feasible(0.5, 0.25)
        assert not pair_feasible(0.5, 0.26)
        assert not pair_feasible(-0.1, 0.0)

    def test_stats_feasible_examples(self):
        assert stats_feasible(0.5, 0.5, 2)
        assert not stats_feasible(0.5, 0.51, 2)


class TestRegressionPredicates:
    def test_all_zero_stats(self):
        assert regression_stats_feasible(0.0, 0.0, 0.0, 0.0, 0.0, 10)

    def test_all_ones_data(self):
        n = 8
        assert regression_stats_feasible(n, n, n, n, n, n)

    def test_y_block_violation(self):
        n = 10
        assert not regression_stats_feasible(5.0, 4.0, n, 3.0, n + 1.0, n)

    def test_theta_examples(self):
        assert regression_theta_feasible(RegTheta(0.2, -0.5))
        assert not regression_theta_feasible(RegTheta(2.0, 0.5))
        assert regression_theta_feasible(RegTheta(-0.5, 0.5))  # boundary included

    def test_theta_superset_of_pointwise_feasible_region(self):
        # any (theta0, theta1) keeping theta0 + theta1 x inside [0, 1] for all
        # x in [0, 1] must be accepted by the predicate
        for t0 in np.linspace(-2.0, 2.0, 81):
            for t1 in np.linspace(-2.0, 2.0, 81):
                lo = min(t0, t0 + t1)
                hi = max(t0, t0 + t1)
                if 0.0 <= lo and hi <= 1.0:
                    assert regression_theta_feasible(RegTheta(t0, t1))

    def test_data_grid_satisfies_stat_system(self):
        grid = [0.0, 0.5, 1.0]
        n = 3
        for xs in itertools.product(grid, repeat=n):
            for ys in itertools.product(grid, repeat=n):
                x = np.array(xs)
                y = np.array(ys)
                assert regression_stats_feasible(
                    x.sum(), (x * x).sum(), y.sum(), (x * y).sum(), (y * y).sum(), n
                )
                assert y.var(ddof=1) <= 0.25 * n / (n - 1.0) + 1e-12


class TestInducedMarginal:
    def test_uniform_region_mu_marginal_is_beta22(self):
        rng = np.random.default_rng(4242)
        accepted = np.empty(100_000)
        count = 0
        while count < accepted.size:
            mu = rng.random(200_000)
            sig = rng.random(200_000) * 0.25
            keep = mu * (1.0 - mu) >= sig
            take = min(keep.sum(), accepted.size - count)
            accepted[count:count + take] = mu[keep][:take]
            count += take
        assert ks_distance(accepted, beta22_cdf) < 0.02
