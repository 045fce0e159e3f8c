import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgibbs.summary import (
    CoverageRecord,
    IntervalEstimate,
    coverage_aggregate,
    ess,
    hpd_interval,
    kde_mode,
    mc_se,
)
from oracles import kde_mode_reference


class TestHpdInterval:
    def test_uniform_grid_ties_take_first_window(self):
        # steps of 1/128 are exactly representable, so all windows tie exactly
        samples = np.arange(1, 101) / 128.0
        iv = hpd_interval(samples, 0.95)
        assert iv.length == 94.0 / 128.0
        assert iv.lo == 1.0 / 128.0

    def test_constant_samples(self):
        iv = hpd_interval(np.full(100, 3.5), 0.95)
        assert (iv.lo, iv.hi) == (3.5, 3.5)

    def test_standard_normal_endpoints(self):
        rng = np.random.default_rng(0)
        iv = hpd_interval(rng.standard_normal(100_000), 0.95)
        assert iv.lo == pytest.approx(-1.96, abs=0.05)
        assert iv.hi == pytest.approx(1.96, abs=0.05)

    def test_window_contains_required_count(self):
        rng = np.random.default_rng(1)
        x = rng.exponential(size=997)
        for mass in (0.5, 0.9, 0.95):
            iv = hpd_interval(x, mass)
            inside = ((x >= iv.lo) & (x <= iv.hi)).sum()
            assert inside >= int(np.ceil(mass * x.size))

    @given(st.floats(0.5, 0.9), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_width_monotone_in_mass(self, mass, seed):
        x = np.random.default_rng(seed).standard_normal(400)
        narrow = hpd_interval(x, mass)
        wide = hpd_interval(x, 0.95)
        assert narrow.length <= wide.length + 1e-12

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            hpd_interval(np.arange(5), 0.95)

    def test_bad_mass(self):
        with pytest.raises(ValueError):
            hpd_interval(np.arange(100), 1.0)


class TestKdeMode:
    def test_constant_samples(self):
        assert kde_mode(np.full(50, 2.25)) == 2.25

    def test_standard_normal_mode(self):
        rng = np.random.default_rng(1)
        assert abs(kde_mode(rng.standard_normal(100_000))) < 0.05

    def test_standard_normal_mode_average_error(self):
        # the argmax estimator has sd ~ 0.07 at this sample size; the average
        # absolute deviation over seeds must sit well inside that scale
        devs = [abs(kde_mode(np.random.default_rng(s).standard_normal(100_000)))
                for s in range(8)]
        assert float(np.mean(devs)) < 0.09

    def test_mixture_dominant_component(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([
            rng.normal(0.0, 0.1, 80_000),
            rng.normal(3.0, 0.1, 20_000),
        ])
        assert abs(kde_mode(x)) < 0.05

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_mode_inside_sample_range(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.gamma(2.0, 1.0, 500)
        m = kde_mode(x)
        assert x.min() <= m <= x.max()

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            kde_mode(np.arange(10))


def _kde_sample(kind: str, t: int, rng) -> np.ndarray:
    if kind == "normal":
        return rng.normal(0.3, 0.1, t)
    if kind == "bimodal":
        return np.where(rng.random(t) < rng.uniform(0.3, 0.7),
                        rng.normal(0.0, 1.0, t), rng.normal(3.0, rng.uniform(0.2, 1.0), t))
    if kind == "rounded":
        return np.round(rng.normal(0.0, 1.0, t), 1)
    if kind == "gamma":
        return rng.gamma(rng.uniform(0.3, 5.0), 2.0, t)
    if kind == "cauchy":
        return rng.standard_cauchy(t)
    if kind == "mirrored":  # two modes of equal height up to rounding
        y = rng.normal(1.0, 0.3, (t + 1) // 2)
        return np.concatenate([y, -y])
    return 2.5 + 1e-12 * rng.standard_normal(t)


class TestKdeScreen:
    """The screened kde_mode returns exactly what the full 512 x T sum gives."""

    @given(st.sampled_from(["normal", "bimodal", "rounded", "gamma", "cauchy", "mirrored",
                            "near-constant"]),
           st.integers(30, 20_000), st.sampled_from([0.0, 1e6]), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_full_sum(self, kind, t, offset, seed):
        x = _kde_sample(kind, t, np.random.default_rng(seed)) + offset
        assert kde_mode(x) == kde_mode_reference(x)

    def test_near_ties_resolve_as_in_the_full_sum(self):
        # the screen's own argmax picks the wrong one of two mirrored modes
        # on about a fifth of these samples
        for seed in range(40):
            x = _kde_sample("mirrored", 30 + 97 * seed, np.random.default_rng(seed))
            assert kde_mode(x) == kde_mode_reference(x)

    def test_matches_full_sum_on_a_long_chain(self):
        x = np.random.default_rng(7).standard_normal(100_000)
        assert kde_mode(x) == kde_mode_reference(x)


class TestCoverageAggregate:
    def test_full_coverage(self):
        recs = [CoverageRecord(IntervalEstimate(0.0, 1.0, 0.95), 0.5, 0.5)
                for _ in range(10)]
        assert coverage_aggregate(recs)["coverage"] == 1.0

    def test_exact_point_gives_zero_rmse(self):
        recs = [CoverageRecord(IntervalEstimate(0.0, 1.0, 0.95), 0.3, 0.3)]
        assert coverage_aggregate(recs)["rmse"] == 0.0

    def test_average_length(self):
        recs = [
            CoverageRecord(IntervalEstimate(0.0, 0.2, 0.95), 0.1, 0.5),
            CoverageRecord(IntervalEstimate(0.0, 0.4, 0.95), 0.2, 0.5),
        ]
        assert coverage_aggregate(recs)["avg_len"] == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coverage_aggregate([])


class TestEss:
    def test_iid_close_to_n(self):
        x = np.random.default_rng(4).standard_normal(20_000)
        assert ess(x) > 0.8 * x.size

    def test_autocorrelated_chain_shrinks(self):
        rng = np.random.default_rng(5)
        x = np.empty(20_000)
        x[0] = 0.0
        for t in range(1, x.size):
            x[t] = 0.95 * x[t - 1] + rng.standard_normal()
        # AR(1) with rho = 0.95 has ESS factor (1-rho)/(1+rho) ~ 1/39
        assert ess(x) < 0.1 * x.size

    def test_mc_se_scales_with_ess(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(10_000)
        assert mc_se(x) == pytest.approx(x.std(ddof=1) / np.sqrt(ess(x)))
