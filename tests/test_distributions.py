import math
import sys
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpgibbs.distributions as distributions
from dpgibbs.distributions import (
    UniformBlock,
    _log_reg_inc_gamma_lower,
    _log_reg_inc_gamma_upper,
    _tgm_log_weights,
    sample_inverse_gaussian,
    sample_laplace,
    sample_tgm,
    sample_trunc_gamma,
    sample_trunc_normal,
    sample_trunc_normal_block,
)
from dpgibbs.errors import SamplingError
from scipy import special as sc
from scipy import integrate, stats
from scipy.special import cython_special as cs
from scipy.special import gammainc
from dpgibbs.validation import ks_distance
from oracles import gamma_cdf, tgm_pdf, tgm_weights

# closed forms for the (2, 2, 1, 1) weight check: gamma(2,x) = 1 - e^-x (1+x)
_W1_EXPECTED = math.exp(-1.0) * (1.0 - 2.0 * math.exp(-1.0))
_W2_EXPECTED = math.exp(1.0) * (4.0 * math.exp(-3.0)) / 9.0
PI1_2211 = _W1_EXPECTED / (_W1_EXPECTED + _W2_EXPECTED)

# (alpha, beta, lam, tau) of the s_sq conditional, alpha = (n-1)/2, beta = (n-1)/(2 sigma_sq),
# lam = eps2 n, at (n, eps2, sigma_sq, tau) = (1e6, 0.1, 0.25, 0.2515), (1e7, 1, 0.01, 0.00998)
# and (1e8, 0.1, 0.04, 0.03992): Q(alpha, (beta + lam) tau) underflows at all three and
# P(alpha, (beta - lam) tau) at the last two
LARGE_N_TGMS = [((n - 1.0) / 2.0, (n - 1.0) / (2.0 * s2), eps2 * n, tau)
                for n, eps2, s2, tau in [(1e6, 0.1, 0.25, 0.2515), (1e7, 1.0, 0.01, 0.00998),
                                         (1e8, 0.1, 0.04, 0.03992)]]


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def _underflow_edge(f, a, zero, positive):
    """The float nearest `positive` where f(a, x) is 0, bisecting from f(a, zero) = 0."""
    while True:
        mid = 0.5 * (zero + positive)
        if mid in (zero, positive):
            return zero
        if f(a, mid) == 0.0:
            zero = mid
        else:
            positive = mid


def _tgm_first_share(alpha, beta, lam, tau):
    """P(t <= tau) for the TGM density t^(alpha-1) e^(-beta t - lam |t - tau|), alpha > 1.

    Quadrature of exp(g(t) - g(p)), p the peak of g (the mode of a piece, or the
    kink at tau), over 60 sd of the lower piece's gamma each side of tau and p.
    """
    k = alpha - 1.0
    p = min(max(tau, k / (beta + lam)), k / (beta - lam))

    def f(t):
        return math.exp(k * math.log1p((t - p) / p) - beta * (t - p)
                        - lam * (abs(t - tau) - abs(p - tau)))

    width = abs(p - tau) + 60.0 * math.sqrt(alpha) / (beta - lam)
    knots = sorted({max(tau - width, 0.0), tau, p, tau + width})
    pieces = [(b, integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-10, limit=200)[0])
              for a, b in zip(knots[:-1], knots[1:])]
    return sum(v for b, v in pieces if b <= tau) / sum(v for _, v in pieces)


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

    def test_infinite_argument(self):
        for a in (0.3, 1.0, 7.5, 1e6):
            assert _log_reg_inc_gamma_lower(a, math.inf) == 0.0
            assert _log_reg_inc_gamma_upper(a, math.inf) == -math.inf

    @given(st.floats(0.05, 50.0), st.floats(0.0, 80.0))
    @settings(max_examples=200, deadline=None)
    def test_tails_sum_to_one(self, shape, x):
        total = (math.exp(_log_reg_inc_gamma_lower(shape, x))
                 + math.exp(_log_reg_inc_gamma_upper(shape, x)))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1.5])
    @pytest.mark.parametrize("a", [1e-3, 0.5, 3.0, 50.0, 1e3, 1e5, 1e6, 1e7, 1e8])
    def test_upper_tail_matches_mpmath(self, a, scale):
        """From the smallest x where gammaincc underflows."""
        x = scale * _underflow_edge(cs.gammaincc, a, 2.0 * a + 2000.0, a + 1.0)
        with mpmath.workdps(30):
            ref = float(mpmath.log(mpmath.gammainc(a, x, mpmath.inf, regularized=True)))
        assert _log_reg_inc_gamma_upper(a, x) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    @pytest.mark.parametrize("a", [50.0, 1e3, 1e5, 1e6, 1e7])
    def test_lower_tail_matches_mpmath(self, a, scale):
        """From the largest x where gammainc underflows."""
        x = scale * _underflow_edge(cs.gammainc, a, sys.float_info.min, a)
        with mpmath.workdps(30):
            ref = float(mpmath.log(mpmath.gammainc(a, 0, x, regularized=True)))
        assert _log_reg_inc_gamma_lower(a, x) == pytest.approx(ref, rel=1e-9)


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

    @pytest.mark.parametrize("params", LARGE_N_TGMS, ids=["n1e6", "n1e7", "n1e8"])
    def test_large_n_weights_match_quadrature(self, params):
        log_w1, log_w2 = _tgm_log_weights(*params, math.inf)[:2]
        assert sc.expit(log_w1 - log_w2) == pytest.approx(_tgm_first_share(*params), abs=1e-6)


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


def _block_reading(uniforms):
    """A UniformBlock whose random() is ``uniforms``."""
    block = UniformBlock(np.random.default_rng(0))
    block.random = uniforms
    return block


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

    @pytest.mark.parametrize("shape, lo, hi, seed", [
        (3.0, 30.0, 32.0, 201), (3.0, 40.0, math.inf, 202), (0.5, 40.0, math.inf, 203),
        (1.0, 40.0, 45.0, 204), (400.0, 0.0, 250.0, 205), (400.0, 200.0, 250.0, 206),
        (1e4, 1.1e4, math.inf, 207), (1e4, 0.0, 9.1e3, 208), (2.0, 0.0, 1e-7, 209)])
    def test_tail_windows_match_the_exact_cdf(self, shape, lo, hi, seed):
        """Tail windows, down to (0, 1e-7] where the density rises as x, against quadrature."""
        rng = np.random.default_rng(seed)
        x = np.array([sample_trunc_gamma(shape, 1.0, lo, hi, rng) for _ in range(5000)])
        assert np.all((x > lo) & (x <= hi))
        assert stats.kstest(x, lambda z: _trunc_gamma_cdf(z, shape, lo, hi)).pvalue > 1e-3

    @pytest.mark.parametrize("shape, rate, lo, hi, seed", [
        (5e6, 1.0, 0.0, 4.5e6, 221), (5e6, 1.0, 5.6e6, math.inf, 222),
        *[(alpha, rate, lo, hi, 223 + 2 * i + j)
          for i, (alpha, beta, lam, tau) in enumerate(LARGE_N_TGMS)
          for j, (rate, lo, hi) in enumerate([(beta - lam, 0.0, tau),
                                              (beta + lam, tau, math.inf)])]],
        ids=["5e6 left", "5e6 right", *[f"{n} {side}" for n in ("n1e6", "n1e7", "n1e8")
                                       for side in ("first", "second")]])
    def test_windows_beyond_exp_underflow_match_the_log_cdf(self, shape, rate, lo, hi, seed):
        """Windows whose log CDF at the ends is -1e4 or lower, where scipy's CDF is 0:
        Gamma(5e6) far below and above its mean, and the large-n TGMs' components."""
        rng = np.random.default_rng(seed)
        x = np.array([sample_trunc_gamma(shape, rate, lo, hi, rng) for _ in range(3000)])
        assert np.all((x > lo) & (x <= hi))
        cdf = _log_tail_cdf(shape, rate * lo, rate * hi)
        assert stats.kstest(x, lambda z: cdf(rate * z)).pvalue > 1e-3

    @pytest.mark.parametrize("stub", [lambda u: SimpleNamespace(random=u), _block_reading],
                             ids=["random only", "UniformBlock"])
    @pytest.mark.parametrize("shape, rate, lo, hi", [
        (2.0, 1.0, 60.0, math.inf), (400.0, 1.0, 0.0, 250.0), (0.5, 1e3, 0.04, 0.05),
        (5e6, 1.0, 0.0, 4.5e6), (5e6, 1.0, 5.6e6, math.inf)],
        ids=["right", "left", "right finite", "5e6 left", "5e6 right"])
    def test_tails_read_only_uniforms(self, stub, shape, rate, lo, hi):
        """A tail draw reads one uniform u, 0.0 and 1 - 2^-53 included (a second read
        would raise), and gives the x at which the log tail CDF is
        t = log((1 - u) F(near) + u F(far)), to the accuracy of log F (mpmath)."""
        right = lo > shape / rate
        near, far = (lo, hi) if right else (hi, lo)

        def tail(z):
            args = (z * rate, mpmath.inf) if right else (0, z * rate)
            return mpmath.gammainc(shape, *args, regularized=True)

        for u in (0.0, 0.3, 1.0 - 2.0 ** -53):
            x = sample_trunc_gamma(shape, rate, lo, hi, stub(iter([u]).__next__))
            assert lo < x <= hi
            with mpmath.workdps(40):
                t = mpmath.log((1 - u) * tail(near) + u * tail(far))
                assert float(mpmath.log(tail(x))) == pytest.approx(float(t), rel=1e-12)


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

    def test_large_n_component_share(self):
        """At n = 1e7 both components' windows and weights sit in underflowing tails."""
        params = LARGE_N_TGMS[1]
        p = _tgm_first_share(*params)
        rng = np.random.default_rng(211)
        x = np.array([sample_tgm(*params, math.inf, rng) for _ in range(4000)])
        assert abs((x <= params[3]).mean() - p) < 4.0 * math.sqrt(p * (1.0 - p) / x.size)

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

    def test_upper_far_tail(self, rng):
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

    @pytest.mark.parametrize("lo, hi", [(-0.5, 1.5), (8.0, 9.0), (40.0, math.inf),
                                        (1e3, 1e3 + 1.0), (-math.inf, -40.0)])
    def test_one_uniform_per_draw(self, lo, hi):
        """k draws leave the generator where k random() calls leave it."""
        mean, sd, k = 0.3, 0.2, 200
        lo, hi = mean + sd * lo, mean + sd * hi
        rng, block_rng, ref = (np.random.default_rng(17) for _ in range(3))
        for _ in range(k):
            assert lo <= sample_trunc_normal(mean, sd, lo, hi, rng) <= hi
        sample_trunc_normal_block(mean, sd, lo, hi, k, block_rng)
        ref.random(k)
        assert rng.random() == block_rng.random() == ref.random()

    @pytest.mark.parametrize("a, b, seed", [(8.0, 9.0, 101), (-40.0, -39.0, 102),
                                            (40.0, math.inf, 103), (-1.0, 30.0, 104)])
    def test_tail_windows_match_the_exact_cdf(self, a, b, seed):
        mean, sd = 2.0, 0.5
        rng = np.random.default_rng(seed)
        x = np.array([sample_trunc_normal(mean, sd, mean + sd * a, mean + sd * b, rng)
                      for _ in range(20_000)])
        assert stats.kstest((x - mean) / sd, lambda z: _trunc_normal_cdf(z, a, b)).pvalue > 1e-3


def _trunc_normal_cdf(z, a, b):
    """CDF of the standard normal on [a, b] from log_ndtr; a window right of 0 by symmetry."""
    if a > 0.0:
        return 1.0 - _trunc_normal_cdf(-z, -b, -a)
    la, lz, lb = sc.log_ndtr(a), sc.log_ndtr(np.clip(z, a, b)), sc.log_ndtr(b)
    with np.errstate(divide="ignore"):  # log(0) at z = a
        return np.exp(lz - lb + np.log1p(-np.exp(la - lz)) - np.log1p(-np.exp(la - lb)))


def _trunc_gamma_cdf(z, shape, lo, hi):
    """CDF of Gamma(shape, 1) on (lo, hi] at z, by quadrature of exp(g(t) - g(e)).

    g(t) = (shape - 1) log t - t and e is the window end nearest the mode,
    so the integrand peaks at 1 and nothing underflows.  Segments between
    the sorted points are integrated one by one and summed.
    """
    def g(t):
        return (shape - 1.0) * math.log(t) - t

    ge = g(lo if lo >= shape - 1.0 else hi)

    def f(t):
        return math.exp(g(t) - ge) if t > 0.0 else 0.0

    order = np.argsort(z)
    knots = [lo, *np.clip(np.asarray(z, dtype=float)[order], lo, hi), hi]
    pieces = [integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-10, limit=200)[0] if a < b else 0.0
              for a, b in zip(knots[:-1], knots[1:])]
    cdf = np.cumsum(pieces)
    out = np.empty(len(order))
    out[order] = cdf[:-1] / cdf[-1]
    return out


def _log_tail_cdf(shape, lo, hi):
    """CDF of Gamma(shape, 1) on (lo, hi] from the log incomplete gammas, in the tail
    coordinate that keeps precision: Q for a window above the mean, P below it."""
    upper = lo > shape
    log_f = _log_reg_inc_gamma_upper if upper else _log_reg_inc_gamma_lower
    near, far = (lo, hi) if upper else (hi, lo)

    def drop(z):  # (F(near) - F(z)) / F(near), from the logs
        return -math.expm1(log_f(shape, z) - log_f(shape, near))

    return np.vectorize(lambda z: drop(z) / drop(far) if upper else 1.0 - drop(z) / drop(far))


def _outcome(fn):
    """fn()'s floats as bytes, or the class and message of the error it raises."""
    try:
        return np.asarray(fn(), dtype=float).tobytes()
    except (ValueError, SamplingError) as exc:
        return type(exc), str(exc)


_Z = st.floats(-12.0, 12.0)


class TestSampleTruncNormalBlock:
    """The block kernel is a loop of the scalar kernel, bit for bit."""

    @given(mean=st.floats(-20.0, 20.0), sd=st.floats(1e-3, 10.0),
           lo_z=st.one_of(st.just(-math.inf), _Z),
           hi_z=st.one_of(st.just(math.inf), st.floats(1e-3, 8.0), _Z),
           size=st.integers(1, 2000), seed=st.integers(0, 2 ** 32 - 1))
    @example(mean=0.0, sd=1.0, lo_z=8.0, hi_z=0.5, size=300, seed=1)  # upper tail
    @example(mean=0.0, sd=1.0, lo_z=-9.0, hi_z=1.0, size=300, seed=2)  # lower tail
    @example(mean=0.0, sd=1.0, lo_z=6.0, hi_z=math.inf, size=50, seed=3)
    @example(mean=0.0, sd=1.0, lo_z=-math.inf, hi_z=-6.0, size=50, seed=4)
    @example(mean=0.4, sd=0.3, lo_z=-4.0 / 3.0, hi_z=2.0, size=2000, seed=5)  # [0, 1]
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_loop(self, mean, sd, lo_z, hi_z, size, seed):
        """lo = mean + sd lo_z; a finite lo puts hi a width hi_z sd above it,
        an infinite one puts hi at mean + sd hi_z."""
        lo = mean + sd * lo_z
        hi = (lo if math.isfinite(lo) else mean) + sd * hi_z
        block_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        block = _outcome(lambda: sample_trunc_normal_block(mean, sd, lo, hi, size, block_rng))
        loop = _outcome(lambda: [sample_trunc_normal(mean, sd, lo, hi, loop_rng)
                                 for _ in range(size)])
        assert block == loop
        assert block_rng.random() == loop_rng.random()

    @pytest.mark.parametrize("sd, lo, hi", [(0.0, 0.0, 1.0), (-1.0, 0.0, 1.0),
                                            (math.inf, 0.0, 1.0), (math.nan, 0.0, 1.0),
                                            (1.0, 1.0, 1.0), (1.0, 2.0, 1.0),
                                            (1.0, math.nan, 1.0)])
    def test_bad_arguments_raise_as_scalar(self, sd, lo, hi):
        block = _outcome(lambda: sample_trunc_normal_block(0.0, sd, lo, hi, 5,
                                                           np.random.default_rng(0)))
        scalar = _outcome(lambda: sample_trunc_normal(0.0, sd, lo, hi,
                                                      np.random.default_rng(0)))
        assert isinstance(block, tuple) and block == scalar


class TestUniformBlock:
    """The collapsed sampler's per-chain source of uniforms."""

    def test_yields_the_generators_doubles_in_order(self):
        block = UniformBlock(np.random.default_rng(8))
        got = [block.random() for _ in range(10_000)]  # crosses two block boundaries
        assert got == np.random.default_rng(8).random(10_000).tolist()

    def test_normals_are_transforms_of_the_uniforms(self):
        u = np.random.default_rng(9).random(2)
        block = UniformBlock(np.random.default_rng(9))
        assert block.standard_normal() == cs.ndtri(u[0])

    def test_a_zero_uniform_is_skipped(self):
        block = UniformBlock(np.random.default_rng(0))
        block.random = iter([0.0, 0.0, 0.25]).__next__
        assert block.standard_normal() == cs.ndtri(0.25)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_feeds_the_scalar_kernels(self, seed):
        block = UniformBlock(np.random.default_rng(seed))
        for _ in range(10):
            assert 0.0 < sample_trunc_gamma(3.0, 2.0, 0.5, 4.0, block) <= 4.0
            x = sample_tgm(2.0, 3.0, 1.0, 0.4, math.inf, block)
            assert math.isfinite(x) and x > 0.0
            assert 0.3 <= sample_trunc_normal(0.0, 1.0, 0.3, 0.9, block) <= 0.9
            assert 7.0 <= sample_trunc_normal(0.0, 1.0, 7.0, 8.0, block) <= 8.0
            # a gamma tail window
            assert 60.0 < sample_trunc_gamma(2.0, 1.0, 60.0, math.inf, block)
            assert sample_inverse_gaussian(1.5, 2.0, block) > 0.0


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

    @given(_decades(-300.0, 300.0), _decades(-300.0, 300.0), st.integers(0, 2 ** 32 - 1))
    @example(mean=1e162, shape=1e300, seed=0)  # mean * mean overflowed
    @example(mean=1e162, shape=1e-12, seed=0)  # t * t overflowed, so x1 was 0
    @example(mean=1e-200, shape=1e-200, seed=0)  # mean * mean underflowed
    @settings(max_examples=300, deadline=None)
    def test_finite_positive_and_unchanged_where_it_was(self, mean, shape, seed):
        """Draws at finite extremes are finite and positive, and bit-equal to the
        earlier formula's wherever that gave a finite positive draw."""
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            x = sample_inverse_gaussian(mean, shape, rng)
            before = _inverse_gaussian_before(mean, shape, ref)
            assert 0.0 < x < math.inf
            if 0.0 < before < math.inf:
                assert x == before


def _inverse_gaussian_before(mean, shape, rng):
    """sample_inverse_gaussian as first written, whose roots overflow at finite arguments."""
    nu = rng.standard_normal()
    t = (mean / shape) * nu * nu
    x1 = mean / (1.0 + 0.5 * t + math.sqrt(t + 0.25 * t * t))
    if rng.random() <= mean / (mean + x1):
        return x1
    return mean * mean / x1


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


_SHAPES = st.one_of(_decades(-3.0, 6.0), st.floats(1e-3, 1e6))
_ARGUMENTS = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e300, 1.7e308]),
                       _decades(-320.0, 308.0), st.floats(0.0, 1e3))
_PROBABILITIES = st.one_of(st.sampled_from([0.0, 5e-324, 0.5, 1.0 - 2.0 ** -53, 1.0]),
                           _decades(-300.0, 0.0), _decades(-16.0, 0.0).map(lambda e: 1.0 - e),
                           st.floats(0.0, 1.0))
_REALS = st.one_of(st.sampled_from([-math.inf, -1e300, -40.0, -0.0, 0.0, 5e-324, math.inf]),
                   _decades(-320.0, 308.0), _decades(-320.0, 308.0).map(lambda x: -x),
                   st.floats(-50.0, 50.0), st.floats(allow_nan=False))


class TestCythonSpecialMatchesUfunc:
    """The kernels call scipy's special functions through cython_special.

    The draws stay those of the ufuncs only while both paths return the
    same bits; a scipy release that breaks this must fail here.
    """

    @pytest.mark.parametrize("name", ["gammainc", "gammaincc"])
    @given(shape=_SHAPES, x=_ARGUMENTS)
    @settings(max_examples=300, deadline=None)
    def test_incomplete_gamma(self, name, shape, x):
        assert getattr(cs, name)(shape, x).hex() == float(getattr(sc, name)(shape, x)).hex()

    @pytest.mark.parametrize("name", ["gammaincinv", "gammainccinv"])
    @given(shape=_SHAPES, p=_PROBABILITIES)
    @settings(max_examples=300, deadline=None)
    def test_incomplete_gamma_inverse(self, name, shape, p):
        assert getattr(cs, name)(shape, p).hex() == float(getattr(sc, name)(shape, p)).hex()

    @given(a=st.one_of(_SHAPES, _ARGUMENTS))
    @settings(max_examples=300, deadline=None)
    def test_gammaln(self, a):
        assert cs.gammaln(a).hex() == float(sc.gammaln(a)).hex()

    @given(p=_PROBABILITIES)
    @settings(max_examples=300, deadline=None)
    def test_ndtri(self, p):
        assert cs.ndtri(p).hex() == float(sc.ndtri(p)).hex()

    @pytest.mark.parametrize("name", ["log_ndtr", "expm1"])
    @given(x=_REALS)
    @settings(max_examples=300, deadline=None)
    def test_on_the_real_line(self, name, x):
        assert getattr(cs, name)(x).hex() == float(getattr(sc, name)(x)).hex()

    @given(x=st.one_of(_REALS.map(lambda x: -abs(x)), _PROBABILITIES.map(lambda p: -p)))
    @settings(max_examples=300, deadline=None)
    def test_ndtri_exp(self, x):
        assert cs.ndtri_exp(x).hex() == float(sc.ndtri_exp(x)).hex()

    @given(x=st.one_of(_REALS.filter(lambda x: x >= -1.0), _PROBABILITIES.map(lambda p: -p)))
    @settings(max_examples=300, deadline=None)
    def test_log1p(self, x):
        assert cs.log1p(x).hex() == float(sc.log1p(x)).hex()

    @pytest.mark.parametrize("name", ["log_ndtr", "log1p", "expm1", "expit"])
    @given(x=st.one_of(_REALS, _PROBABILITIES.map(lambda p: -p)))
    @settings(max_examples=300, deadline=None)
    def test_double_specialization(self, name, x):
        """distributions binds the double form of each fused function once."""
        assert getattr(distributions, "_" + name)(x).hex() == float(getattr(sc, name)(x)).hex()


def _counting(seed):
    """A stand-in generator whose random() counts its reads."""
    gen, rng = np.random.default_rng(seed), SimpleNamespace(reads=0)

    def random():
        rng.reads += 1
        return gen.random()

    rng.random = random
    return rng


class TestUniformAccounting:
    """A truncated gamma draw reads one uniform and a TGM draw at most two, in bulk and
    tail windows alike, with shape, rate and window ends drawn as the kernels digest
    draws them; a window refused before its draw reads none."""

    @given(_decades(-3.0, 6.0), _decades(-3.0, 6.0),
           st.sampled_from([0.0, 1e-300, 1e-6, 0.5, 0.99, 3.0, 50.0]),
           st.sampled_from([1e-300, 1e-9, 1e-3, 0.5, 2.0, math.inf]), st.floats(0.0, 0.999),
           st.sampled_from([-2.0, 1e-300, 1e-8, 0.3, 1.0, 4.0, 1e3]),
           st.sampled_from([1e-300, 0.5, 2.0, 1e3, math.inf]), st.integers(0, 2 ** 32 - 1))
    @example(shape=400.0, rate=1.0, lo_share=0.0, width_share=0.625, lam_share=0.5,
             tau_share=1e3, upper_share=1e3, seed=1)  # a left tail window
    @example(shape=2.0, rate=1.0, lo_share=50.0, width_share=math.inf, lam_share=0.5,
             tau_share=1e-300, upper_share=math.inf, seed=2)  # a right tail window
    @settings(max_examples=300, deadline=None)
    def test_reads_per_draw(self, shape, rate, lo_share, width_share, lam_share, tau_share,
                            upper_share, seed):
        mean = shape / rate
        lo = mean * lo_share
        hi = lo + mean * width_share
        rng = _counting(seed)
        if lo < hi:
            try:
                x = sample_trunc_gamma(shape, rate, lo, hi, rng)
                assert lo < x <= hi and rng.reads == 1
            except SamplingError:
                assert rng.reads == 0
        rng.reads = 0
        try:
            sample_tgm(shape, rate, rate * lam_share, mean * tau_share, mean * upper_share, rng)
        except SamplingError:
            pass
        assert rng.reads <= 2
