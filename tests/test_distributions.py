import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgibbs.distributions import (
    _log_reg_inc_gamma_lower,
    _log_reg_inc_gamma_upper,
    sample_inverse_gaussian,
    sample_laplace,
    sample_tgm,
    sample_trunc_gamma,
    sample_trunc_normal,
    tgm_pdf,
    tgm_weights,
)
from dpgibbs.errors import SamplingError
from scipy.special import gammainc
from dpgibbs.validation import ks_distance
from oracles import gamma_cdf

# closed forms for the (2, 2, 1, 1) weight check: gamma(2,x) = 1 - e^-x (1+x)
_W1_EXPECTED = math.exp(-1.0) * (1.0 - 2.0 * math.exp(-1.0))
_W2_EXPECTED = math.exp(1.0) * (4.0 * math.exp(-3.0)) / 9.0
PI1_2211 = _W1_EXPECTED / (_W1_EXPECTED + _W2_EXPECTED)


class TestRegIncGamma:
    """The log-space regularized incomplete gamma behind the TGM weights."""

    def test_shape_one_closed_form(self):
        assert math.exp(_log_reg_inc_gamma_lower(1.0, 1.0)) == \
            pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_shape_two_closed_form(self):
        assert math.exp(_log_reg_inc_gamma_lower(2.0, 1.0)) == \
            pytest.approx(1.0 - 2.0 * math.exp(-1.0), abs=1e-12)

    def test_zero_argument(self):
        for a in (0.3, 1.0, 7.5):
            assert _log_reg_inc_gamma_lower(a, 0.0) == -math.inf
            assert _log_reg_inc_gamma_upper(a, 0.0) == 0.0

    @given(st.floats(0.05, 50.0), st.floats(0.0, 80.0))
    @settings(max_examples=200, deadline=None)
    def test_tails_sum_to_one(self, shape, x):
        total = (math.exp(_log_reg_inc_gamma_lower(shape, x))
                 + math.exp(_log_reg_inc_gamma_upper(shape, x)))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestTgmParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            tgm_weights(0.0, 2.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            tgm_weights(1.0, 1.0, 1.0, 0.5)  # beta == lam
        with pytest.raises(ValueError):
            tgm_weights(1.0, 1.0, -0.1, 0.5)
        tgm_pdf(1.0, 1.0, 0.0, -2.0, 1.0)  # valid

    def test_window_invariants(self, rng):
        with pytest.raises(ValueError):
            sample_trunc_gamma(2.0, 1.0, 1.0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_trunc_normal(0.0, 1.0, 2.0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_trunc_normal(0.0, 1.0, math.nan, 1.0, rng)


class TestTgmWeights:
    def test_reference_point(self):
        pi1, pi2 = tgm_weights(2.0, 2.0, 1.0, 1.0)
        assert pi1 == pytest.approx(PI1_2211, abs=1e-10)
        assert round(pi1, 3) == 0.618

    def test_weights_sum_to_one(self):
        pi1, pi2 = tgm_weights(5.0, 3.0, 2.0, 0.5)
        assert pi1 + pi2 == pytest.approx(1.0, abs=1e-12)

    def test_lambda_zero_collapse(self):
        alpha, beta, tau = 3.0, 2.0, 0.8
        pi1, _ = tgm_weights(alpha, beta, 0.0, tau)
        assert pi1 == pytest.approx(gammainc(alpha, beta * tau), abs=1e-12)

    def test_huge_tau_selects_first_component(self):
        pi1, _ = tgm_weights(1.0, 2.0, 1.0, 1e6)
        assert pi1 == pytest.approx(1.0, abs=1e-12)

    def test_requires_positive_tau(self):
        with pytest.raises(ValueError):
            tgm_weights(2.0, 2.0, 1.0, 0.0)

    @given(st.floats(0.2, 30.0), st.floats(0.5, 20.0), st.floats(0.0, 0.95),
           st.floats(0.01, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_weights_sum_property(self, alpha, beta, lam_frac, tau):
        pi1, pi2 = tgm_weights(alpha, beta, lam_frac * beta, tau)
        assert 0.0 <= pi1 <= 1.0
        assert pi1 + pi2 == pytest.approx(1.0, abs=1e-12)


class TestTgmPdf:
    def test_continuity_at_tau(self):
        below = tgm_pdf(2.0, 2.0, 1.0, 1.0, 1.0 - 1e-12)
        above = tgm_pdf(2.0, 2.0, 1.0, 1.0, 1.0 + 1e-12)
        assert below == pytest.approx(above, abs=1e-10)

    def test_lambda_zero_is_gamma(self):
        for x in (0.1, 0.5, 1.2, 4.0):
            gamma_pdf = (3.0 ** 2.5 / math.gamma(2.5)) * x ** 1.5 * math.exp(-3.0 * x)
            assert tgm_pdf(2.5, 3.0, 0.0, 0.6, x) == pytest.approx(gamma_pdf, rel=1e-12)

    def test_negative_tau_is_gamma_with_summed_rate(self):
        rate = 3.0
        for x in (0.2, 1.0, 2.5):
            gamma_pdf = rate ** 2 * x * math.exp(-rate * x)
            assert tgm_pdf(2.0, 2.0, 1.0, -1.0, x) == pytest.approx(gamma_pdf, rel=1e-12)

    @pytest.mark.parametrize("params", [
        (2.0, 2.0, 1.0, 1.0),
        (5.0, 3.0, 2.0, 0.5),
        (0.5, 1.0, 0.3, 2.0),
        (3.0, 4.0, 0.0, -1.0),
    ])
    def test_integrates_to_one(self, params):
        from scipy import integrate

        alpha, beta, lam, tau = params
        hi = max(30.0 * alpha / (beta - lam), 10.0 * abs(tau) + 10.0)
        split = tau if 0.0 < tau < hi else hi / 2.0
        total = 0.0
        for lo_piece, hi_piece in ((0.0, split), (split, hi)):
            val, _ = integrate.quad(lambda x: tgm_pdf(*params, x), lo_piece, hi_piece,
                                    epsabs=1e-12, epsrel=1e-11, limit=200)
            total += val
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            tgm_pdf(2.0, 2.0, 1.0, 1.0, 0.0)


class TestSampleTruncGamma:
    def test_untruncated_matches_gamma_mean(self, rng):
        shape, rate = 3.0, 2.0
        x = np.array([sample_trunc_gamma(shape, rate, 0.0, math.inf, rng)
                      for _ in range(100_000)])
        se = math.sqrt(shape / rate ** 2 / x.size)
        assert abs(x.mean() - shape / rate) < 3 * se

    def test_truncated_exponential_probability(self, rng):
        # P[X <= 0.5 | X <= 1] = (1 - e^-0.5) / (1 - e^-1)
        expected = (1.0 - math.exp(-0.5)) / (1.0 - math.exp(-1.0))
        x = np.array([sample_trunc_gamma(1.0, 1.0, 0.0, 1.0, rng)
                      for _ in range(50_000)])
        assert abs((x <= 0.5).mean() - expected) < 0.01

    @given(st.floats(0.3, 20.0), st.floats(0.2, 10.0),
           st.floats(0.0, 3.0), st.floats(0.1, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_draws_inside_window(self, shape, rate, lo, width):
        rng = np.random.default_rng(12345)
        for _ in range(5):
            x = sample_trunc_gamma(shape, rate, lo, lo + width, rng)
            assert lo < x <= lo + width

    def test_far_right_tail_window(self, rng):
        x = np.array([sample_trunc_gamma(3.0, 1.0, 30.0, 32.0, rng) for _ in range(2000)])
        assert np.all((x > 30.0) & (x <= 32.0))
        # conditional density ~ shifted exponential with rate ~ 1 - 2/30
        assert 30.0 < x.mean() < 31.5

    def test_far_left_tail_window(self, rng):
        # mass of Gamma(400, 1) below 250 underflows the inverse-CDF route
        x = np.array([sample_trunc_gamma(400.0, 1.0, 0.0, 250.0, rng) for _ in range(2000)])
        assert np.all((x > 0.0) & (x <= 250.0))
        assert x.mean() > 230.0  # density is increasing toward the cap

    def test_zero_mass_window_raises(self, rng):
        # one-ulp interior window: representable but with no CDF mass
        hi = math.nextafter(0.5, 1.0)
        with pytest.raises(SamplingError):
            sample_trunc_gamma(2.0, 1.0, 0.5, hi, rng)

    def test_determinism(self):
        r1 = np.random.default_rng(7)
        r2 = np.random.default_rng(7)
        a = [sample_trunc_gamma(2.0, 1.5, 0.2, 3.0, r1) for _ in range(50)]
        b = [sample_trunc_gamma(2.0, 1.5, 0.2, 3.0, r2) for _ in range(50)]
        assert a == b


class TestSampleTgm:
    def test_negative_tau_matches_gamma(self, rng):
        x = np.array([sample_tgm(2.0, 2.0, 1.0, -0.5, math.inf, rng)
                      for _ in range(100_000)])
        assert ks_distance(x, gamma_cdf(2.0, 3.0)) < 0.01

    def test_lambda_zero_matches_gamma(self, rng):
        x = np.array([sample_tgm(2.0, 2.0, 0.0, 0.7, math.inf, rng)
                      for _ in range(100_000)])
        assert ks_distance(x, gamma_cdf(2.0, 2.0)) < 0.01

    def test_tau_beyond_window_uses_reduced_rate(self, rng):
        # tau above the cap collapses to a single truncated gamma at rate beta - lam
        cap = 1.5
        x = np.array([sample_tgm(2.0, 2.0, 1.0, 5.0, cap, rng)
                      for _ in range(50_000)])
        assert np.all((x > 0) & (x <= cap))
        ref = np.array([sample_trunc_gamma(2.0, 1.0, 0.0, cap, rng)
                        for _ in range(50_000)])
        assert abs(x.mean() - ref.mean()) < 0.02

    def test_windowed_draws_stay_inside(self, rng):
        cap = 1.2
        x = np.array([sample_tgm(2.0, 2.0, 1.0, 1.0, cap, rng)
                      for _ in range(20_000)])
        assert np.all((x > 0) & (x <= cap))

    def test_upper_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            sample_tgm(2.0, 2.0, 1.0, 1.0, 0.0, rng)

    def test_determinism(self):
        a = [sample_tgm(5.0, 3.0, 2.0, 0.5, math.inf, np.random.default_rng(3))
             for _ in range(1)]
        b = [sample_tgm(5.0, 3.0, 2.0, 0.5, math.inf, np.random.default_rng(3))
             for _ in range(1)]
        assert a == b


class TestSampleTruncNormal:
    def test_unbounded_matches_normal(self, rng):
        x = np.array([sample_trunc_normal(1.0, 2.0, -math.inf, math.inf, rng)
                      for _ in range(50_000)])
        assert abs(x.mean() - 1.0) < 3 * 2.0 / math.sqrt(x.size)
        assert abs(x.std() - 2.0) < 0.05

    def test_half_normal_mean(self, rng):
        x = np.array([sample_trunc_normal(0.0, 1.0, 0.0, math.inf, rng)
                      for _ in range(100_000)])
        expected = math.sqrt(2.0 / math.pi)
        sd = math.sqrt(1.0 - expected ** 2)
        assert abs(x.mean() - expected) < 3 * sd / math.sqrt(x.size)

    @given(st.floats(-3.0, 3.0), st.floats(0.1, 4.0),
           st.floats(-5.0, 5.0), st.floats(0.01, 6.0))
    @settings(max_examples=80, deadline=None)
    def test_draws_inside_window(self, mean, sd, lo, width):
        rng = np.random.default_rng(99)
        for _ in range(5):
            x = sample_trunc_normal(mean, sd, lo, lo + width, rng)
            assert lo <= x <= lo + width

    def test_far_tail_rejection_branch(self, rng):
        x = np.array([sample_trunc_normal(0.0, 1.0, 8.0, 8.5, rng)
                      for _ in range(3000)])
        assert np.all((x >= 8.0) & (x <= 8.5))
        assert x.mean() < 8.2  # mass hugs the lower edge

    def test_lower_far_tail(self, rng):
        x = np.array([sample_trunc_normal(0.0, 1.0, -9.0, -8.0, rng)
                      for _ in range(1000)])
        assert np.all((x >= -9.0) & (x <= -8.0))

    def test_rejects_bad_sd(self, rng):
        with pytest.raises(ValueError):
            sample_trunc_normal(0.0, 0.0, 0.0, 1.0, rng)


class TestSampleInverseGaussian:
    def test_moments(self, rng):
        mean, shape = 2.0, 1.0
        x = np.array([sample_inverse_gaussian(mean, shape, rng) for _ in range(100_000)])
        var = mean ** 3 / shape
        assert abs(x.mean() - mean) < 3 * math.sqrt(var / x.size)
        m4 = np.mean((x - x.mean()) ** 4)
        se_var = math.sqrt(max(m4 - var ** 2, 0.0) / x.size)
        assert abs(x.var() - var) < 3 * se_var

    def test_strictly_positive(self, rng):
        x = [sample_inverse_gaussian(0.01, 5.0, rng) for _ in range(5000)]
        assert min(x) > 0.0

    def test_large_shape_concentrates(self, rng):
        x = np.array([sample_inverse_gaussian(1.0, 1e6, rng) for _ in range(20_000)])
        assert x.std() < 0.002

    def test_rejects_nonfinite(self, rng):
        with pytest.raises(ValueError):
            sample_inverse_gaussian(math.inf, 1.0, rng)
        with pytest.raises(ValueError):
            sample_inverse_gaussian(1.0, 0.0, rng)


class TestSampleLaplace:
    def test_median_and_variance(self, rng):
        x = np.array([sample_laplace(0.0, 1.0, rng) for _ in range(100_000)])
        assert abs(np.median(x)) < 0.02
        assert abs(x.var() - 2.0) < 0.1

    def test_symmetry_about_location(self, rng):
        x = np.array([sample_laplace(3.0, 0.5, rng) for _ in range(100_000)])
        assert abs((x <= 3.0).mean() - 0.5) < 0.01

    def test_scale_linearity_under_shared_stream(self):
        a = [sample_laplace(0.0, 1.0, np.random.default_rng(11)) for _ in range(200)]
        b = [sample_laplace(0.0, 2.5, np.random.default_rng(11)) for _ in range(200)]
        np.testing.assert_allclose(np.asarray(b), 2.5 * np.asarray(a), rtol=1e-12)

    def test_rejects_bad_scale(self, rng):
        with pytest.raises(ValueError):
            sample_laplace(0.0, -1.0, rng)
