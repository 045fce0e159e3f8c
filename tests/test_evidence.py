import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from dpgibbs.evidence import (
    flat_evidence_closed,
    flat_evidence_quadrature,
    jeffreys_divergence_scan,
    laplace_uniform_matching,
)
from oracles import laplace_gauss_marginal, likelihood_s2_star, likelihood_ybar_star_quadrature


class TestLikelihoodS2Star:
    def test_normalizes_to_one(self):
        f = lambda s: likelihood_s2_star(s, 0.04, 20, 0.1)
        v1, _ = integrate.quad(f, -np.inf, 0.0, limit=200)
        v2, _ = integrate.quad(f, 0.0, 5.0, points=[0.04], limit=300)
        v3, _ = integrate.quad(f, 5.0, np.inf, limit=200)
        assert v1 + v2 + v3 == pytest.approx(1.0, abs=1e-6)

    def test_mean_recovers_sigma_sq(self):
        f = lambda s: s * likelihood_s2_star(s, 0.04, 20, 0.1)
        m1, _ = integrate.quad(f, -np.inf, 0.0, limit=200)
        m2, _ = integrate.quad(f, 0.0, 5.0, points=[0.04], limit=300)
        m3, _ = integrate.quad(f, 5.0, np.inf, limit=200)
        assert m1 + m2 + m3 == pytest.approx(0.04, abs=1e-4)

    def test_low_noise_limit_approaches_gamma_density(self):
        # eps2 n = 1e4 with a large gamma shape: the noise variance 2/(eps2 n)^2
        # is then far below the gamma variance while the rate condition holds
        n, sigma_sq = 2001, 0.04
        a = (n - 1) / 2.0
        big_b = (n - 1) / (2.0 * sigma_sq)
        for s2 in (0.039, 0.04, 0.0415):
            gamma_pdf = math.exp(a * math.log(big_b) - math.lgamma(a)
                                 + (a - 1) * math.log(s2) - big_b * s2)
            val = likelihood_s2_star(s2, sigma_sq, n, 1e4 / n)
            assert val == pytest.approx(gamma_pdf, rel=0.01)

    def test_precondition_enforced(self):
        # (n-1)/(2 sigma_sq) must exceed eps2 n
        with pytest.raises(ValueError):
            likelihood_s2_star(0.04, 1.0, 10, 1.0)

    def test_negative_branch_continuous_at_zero(self):
        below = likelihood_s2_star(-1e-9, 0.04, 20, 0.1)
        above = likelihood_s2_star(1e-9, 0.04, 20, 0.1)
        assert below == pytest.approx(above, rel=1e-6)


class TestLikelihoodYbarStar:
    def test_symmetry(self):
        hi = laplace_gauss_marginal(0.63, 0.5, 0.04, 20, 0.1)
        lo = laplace_gauss_marginal(0.37, 0.5, 0.04, 20, 0.1)
        assert hi == pytest.approx(lo, abs=1e-10)

    def test_degenerate_variance_approaches_laplace(self):
        lam = 0.1 * 20
        for d in (0.0, 0.3, 1.0):
            val = laplace_gauss_marginal(0.5 + d, 0.5, 1e-8, 20, 0.1)
            lap = 0.5 * lam * math.exp(-lam * d)
            assert val == pytest.approx(lap, rel=0.01)

    def test_normalizes_to_one(self):
        f = lambda y: laplace_gauss_marginal(y, 0.5, 0.04, 20, 0.1)
        v1, _ = integrate.quad(f, -np.inf, 0.5, limit=300)
        v2, _ = integrate.quad(f, 0.5, np.inf, limit=300)
        assert v1 + v2 == pytest.approx(1.0, abs=1e-6)

    def test_matches_erf_closed_form(self):
        for y, mu, s2, n, e1 in [(0.6, 0.5, 0.04, 20, 0.1),
                                 (0.1, 0.4, 0.01, 50, 0.5),
                                 (-0.3, 0.2, 0.09, 10, 0.25)]:
            closed = laplace_gauss_marginal(y, mu, s2, n, e1)
            quad_val = likelihood_ybar_star_quadrature(y, mu, s2, n, e1)
            assert closed == pytest.approx(quad_val, rel=1e-8)

    @given(st.floats(math.log(3.0), math.log(1e6)), st.floats(1e-3, 10.0),
           st.floats(1e-6, 0.25), st.floats(-5.0, 5.0))
    @settings(max_examples=400, deadline=None)
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_closed_form_across_regimes(self, log_n, eps1, sigma_sq, d):
        # The quadrature's absolute tolerance (epsabs = 1e-14) is the only one
        # that binds below it: at densities near 1e-97 it is off by up to 7e-8
        # relative while the closed form agrees with 50-digit arithmetic to 1e-15.
        n = round(math.exp(log_n))
        val = laplace_gauss_marginal(d, 0.0, sigma_sq, n, eps1)
        mirror = laplace_gauss_marginal(-d, 0.0, sigma_sq, n, eps1)
        assert math.isfinite(val) and val >= 0.0
        assert mirror == pytest.approx(val, rel=1e-12, abs=0.0)
        quad_val = likelihood_ybar_star_quadrature(d, 0.0, sigma_sq, n, eps1)
        if quad_val > 1e-14:
            assert val == pytest.approx(quad_val, rel=1e-8)


class TestFlatEvidence:
    def test_zero_observation_closed_form(self):
        for n in (4, 10, 20):
            assert flat_evidence_closed(0.0, n, 0.1) == pytest.approx(
                (n - 1) / (n - 3) * 0.5)

    def test_reference_value(self):
        assert flat_evidence_closed(0.04, 10, 0.1) == pytest.approx(
            (9.0 / 7.0) * (1.0 - math.exp(-0.04) / 2.0), rel=1e-12)
        assert flat_evidence_closed(0.04, 10, 0.1) == pytest.approx(0.6681, abs=1e-4)

    def test_decays_to_zero_for_negative_observations(self):
        vals = [flat_evidence_closed(s, 10, 0.5) for s in (-0.5, -1.0, -2.0, -5.0)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_requires_n_above_three(self):
        with pytest.raises(ValueError):
            flat_evidence_closed(0.1, 3, 0.1)

    @pytest.mark.parametrize("s2_star", [-1.0, -0.05, -1e-6, 0.0, 1e-6, 0.05, 1.0])
    def test_matches_mpmath_without_cancellation(self, s2_star):
        # at n = 50, eps2 = 10 the Laplace tail beyond |s2_star| reaches e^-500; written
        # as 0.5 + 0.5 sgn (1 - tail) it lost digits at -0.05 and read 0.0 at -1.0
        n, eps2 = 50, 10.0
        with mpmath.workdps(50):
            half_tail = mpmath.exp(-eps2 * n * abs(mpmath.mpf(s2_star))) / 2
            p = half_tail if s2_star < 0 else 1 - half_tail
            expected = float(mpmath.mpf(n - 1) / (n - 3) * p)
        got = flat_evidence_closed(s2_star, n, eps2)
        assert got == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_quadrature_agrees(self):
        rep = flat_evidence_quadrature(0.04, 10, 0.1, 0.1)
        assert rep.rel_err < 1e-3

    def test_quadrature_zero_point(self):
        rep = flat_evidence_quadrature(0.0, 10, 0.1, 0.1)
        assert rep.closed_form == pytest.approx(9.0 / 14.0)
        assert rep.rel_err < 1e-3

    def test_eps1_invariance(self):
        a = flat_evidence_quadrature(0.04, 10, 0.01, 0.1)
        b = flat_evidence_quadrature(0.04, 10, 1.0, 0.1)
        assert abs(a.quadrature - b.quadrature) < 1e-6

    @pytest.mark.parametrize("n", [4, 5, 50])
    @pytest.mark.parametrize("eps2", [0.01, 10.0])
    @pytest.mark.parametrize("s2_star", [-0.05, 0.0, 0.2])
    def test_quadrature_matches_closed_form_tightly(self, n, eps2, s2_star):
        # n = 4 has the slowest sigma_sq^-(n-1)/2 tail; n = 50, eps2 = 10 the narrowest
        # Laplace, and at s2_star = -0.05 an evidence near 7e-12
        rep = flat_evidence_quadrature(s2_star, n, 0.1, eps2)
        assert rep.rel_err < 1e-9

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [31, 100, 316, 1000])
    def test_quadrature_matches_mpmath_at_the_grid_sizes(self, n):
        # the n of simulate --grid fig2; before the outer panels were graded toward the
        # Laplace kink, the worst of these read 7e-6 at n = 1000
        for eps2 in (0.01, 0.1, 1.0, 10.0):
            for s2_star in (-0.05, -1e-3, 0.0, 1e-4, 1e-3, 0.01, 0.04, 0.2, 1.0):
                with mpmath.workdps(50):
                    half_tail = mpmath.exp(-eps2 * n * abs(mpmath.mpf(s2_star))) / 2
                    p = half_tail if s2_star < 0 else 1 - half_tail
                    expected = mpmath.mpf(n - 1) / (n - 3) * p
                got = flat_evidence_quadrature(s2_star, n, 0.1, eps2).quadrature
                assert abs(got - expected) < 1e-12 * expected, (eps2, s2_star)


def test_cli_import_leaves_out_scipy_integrate_and_optimize():
    code = ("import sys, dpgibbs.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


class TestJeffreysScan:
    def test_growth_bound(self):
        n, eps2 = 10, 0.1
        k = (n - 1) / (2.0 * eps2 * n)
        c = eps2 * n / 2.0 * (k / (k + 1.0)) ** ((n - 1) / 2.0)
        for delta, integral in jeffreys_divergence_scan(n, eps2, (1e-2, 1e-4, 1e-6)):
            assert integral >= 0.9 * c * math.log(1.0 / delta)

    def test_strictly_increasing_as_delta_shrinks(self):
        scan = jeffreys_divergence_scan(10, 0.1, (1e-1, 1e-3, 1e-5))
        vals = [v for _, v in scan]
        assert vals[0] < vals[1] < vals[2]

    def test_empty_interval_is_zero(self):
        (_, val), = jeffreys_divergence_scan(10, 0.1, (1.0,))
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_rejects_nondecreasing_deltas(self):
        with pytest.raises(ValueError):
            jeffreys_divergence_scan(10, 0.1, (1e-3, 1e-2))


class TestLaplaceUniformMatching:
    def test_reference_quantiles(self):
        rep = laplace_uniform_matching(1.0, 0.0, 0.05)
        assert rep["credible"].lo == pytest.approx(math.log(0.05), rel=1e-12)
        assert rep["credible"].hi == pytest.approx(-math.log(0.05), rel=1e-12)
        assert rep["credible"].mass == rep["confidence"].mass == pytest.approx(0.95)
        assert rep["max_endpoint_diff"] <= 1e-12

    def test_alpha_near_one_collapses_to_observation(self):
        rep = laplace_uniform_matching(2.0, 1.5, 1.0 - 1e-9)
        assert rep["credible"].lo == pytest.approx(1.5, abs=1e-6)
        assert rep["credible"].hi == pytest.approx(1.5, abs=1e-6)

    def test_translation_equivariance(self):
        base = laplace_uniform_matching(0.7, 0.0, 0.1)
        shifted = laplace_uniform_matching(0.7, 5.0, 0.1)
        assert shifted["credible"].lo == pytest.approx(base["credible"].lo + 5.0)
        assert shifted["confidence"].hi == pytest.approx(base["confidence"].hi + 5.0)

    def test_random_cases_match_to_tolerance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rep = laplace_uniform_matching(float(rng.uniform(0.01, 30.0)),
                                           float(rng.normal(0, 100)),
                                           float(rng.uniform(0.001, 0.6)))
            assert rep["max_endpoint_diff"] <= 1e-12
