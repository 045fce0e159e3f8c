import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpgibbs.gibbs as gibbs
from dpgibbs.distributions import sample_tgm
from dpgibbs.errors import ConfigurationError, DpGibbsError
from dpgibbs.feasible import pair_feasible, stats_feasible
from dpgibbs.gibbs import (
    ConstraintMode,
    GibbsState,
    PredictiveMode,
    PriorSpec,
    SamplerConfig,
    draw_mu,
    draw_sigma_sq,
    draw_ybar,
    gibbs_step,
    init_state,
    predictive_draws,
    run_chain,
)
from dpgibbs.release import UNIT, Bounds, Budget, PrivateRelease
from dpgibbs.summary import mc_se
from oracles import flat_posterior_grid_oracle


def unit_release(ybar_star=0.43, s_sq_star=0.28 ** 2, n=50, eps1=0.25, eps2=0.25):
    return PrivateRelease(ybar_star=ybar_star, s_sq_star=s_sq_star, n=n,
                          budget=Budget(eps1, eps2), bounds=UNIT)


class TestInitState:
    def test_negative_released_variance_gets_floor(self):
        rel = unit_release(s_sq_star=-0.3)
        state = init_state(rel, SamplerConfig(iters=10, seed=0))
        assert state.sigma_sq == 1e-4
        assert state.s_sq == 1e-4

    def test_released_mean_clamped_to_unit(self):
        state = init_state(unit_release(ybar_star=1.7), SamplerConfig(iters=10, seed=0))
        assert state.ybar == 1.0
        state = init_state(unit_release(ybar_star=-0.2), SamplerConfig(iters=10, seed=0))
        assert state.ybar == 0.0

    def test_in_range_values_pass_through(self):
        state = init_state(unit_release(ybar_star=0.4, s_sq_star=0.02),
                           SamplerConfig(iters=10, seed=0))
        assert state.ybar == 0.4
        assert state.sigma_sq == 0.02

    def test_large_variance_capped_at_quarter(self):
        state = init_state(unit_release(s_sq_star=0.9), SamplerConfig(iters=10, seed=0))
        assert state.sigma_sq == 0.25

    def test_omega_initialization(self):
        rel = unit_release(n=43, eps1=0.25)
        state = init_state(rel, SamplerConfig(iters=10, seed=0))
        assert state.omega_sq_inv == pytest.approx(0.25 ** 2 * 43 ** 2 / 2.0)

    def test_explicit_override(self):
        override = GibbsState(mu=0.3, sigma_sq=0.01, ybar=0.3, s_sq=0.01,
                              omega_sq_inv=5.0)
        cfg = SamplerConfig(iters=10, seed=0, init=override)
        assert init_state(unit_release(), cfg) == override


class TestGibbsStep:
    def test_sigma_at_quarter_forces_central_mu(self):
        rel = unit_release()
        state = GibbsState(mu=0.4, sigma_sq=0.25, ybar=0.4, s_sq=0.2,
                           omega_sq_inv=100.0)
        out = gibbs_step(state, rel, PriorSpec.flat(),
                         ConstraintMode.MOMENT_CONSTRAINED, np.random.default_rng(0))
        assert out.mu == 0.5

    def test_flat_unconstrained_mu_conditional(self):
        # holding the rest of the state fixed, mu must be N(ybar, sigma_sq/n)
        rel = unit_release(n=40)
        state = GibbsState(mu=0.5, sigma_sq=0.04, ybar=0.61, s_sq=0.03,
                           omega_sq_inv=50.0)
        rng = np.random.default_rng(1)
        draws = np.array([
            gibbs_step(state, rel, PriorSpec.flat(), ConstraintMode.UNCONSTRAINED, rng).mu
            for _ in range(4000)
        ])
        sd = math.sqrt(0.04 / 40)
        assert abs(draws.mean() - 0.61) < 4 * sd / math.sqrt(draws.size)
        assert abs(draws.std() - sd) < 0.05 * sd

    def test_nig_mu_conditional_center(self):
        rel = unit_release(n=40)
        prior = PriorSpec.conjugate(mu0=0.2, kappa0=10.0, nu0=1.0, sigma0_sq=0.01)
        state = GibbsState(mu=0.5, sigma_sq=0.04, ybar=0.6, s_sq=0.03,
                           omega_sq_inv=50.0)
        rng = np.random.default_rng(2)
        draws = np.array([
            gibbs_step(state, rel, prior, ConstraintMode.UNCONSTRAINED, rng).mu
            for _ in range(4000)
        ])
        expected = (40 * 0.6 + 10 * 0.2) / 50
        sd = math.sqrt(0.04 / 50)
        assert abs(draws.mean() - expected) < 4 * sd / math.sqrt(draws.size)

    def test_footnote_region_always_enforced(self):
        rel = unit_release(n=20, eps2=1.5)
        cap = (20 - 1) / (2 * 20 * 1.5)
        state = init_state(rel, SamplerConfig(iters=10, seed=0))
        rng = np.random.default_rng(3)
        for _ in range(500):
            state = gibbs_step(state, rel, PriorSpec.flat(),
                               ConstraintMode.UNCONSTRAINED, rng)
            assert state.sigma_sq < cap

    def test_constrained_step_preserves_feasibility(self):
        rel = unit_release()
        state = init_state(rel, SamplerConfig(iters=10, seed=0))
        rng = np.random.default_rng(4)
        for _ in range(500):
            state = gibbs_step(state, rel, PriorSpec.flat(),
                               ConstraintMode.MOMENT_CONSTRAINED, rng)
            assert pair_feasible(state.mu, state.sigma_sq)
            assert stats_feasible(state.ybar, state.s_sq, rel.n)


EDGE_PRIORS = (PriorSpec.flat(),
               PriorSpec.conjugate(mu0=0.3, kappa0=2.0, nu0=3.0, sigma0_sq=0.02))
EDGE_N = st.one_of(st.integers(3, 60), st.integers(61, 10 ** 6))


class TestConditionalEdges:
    """At the edges of the feasible region every draw is finite and
    feasible, or the sampler raises a DpGibbsError."""

    @given(EDGE_N, st.floats(-0.5, 1.5), st.sampled_from(EDGE_PRIORS))
    @settings(max_examples=100, deadline=None)
    def test_mu_at_quarter_variance_is_half_without_a_draw(self, n, ybar, prior):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert draw_mu(ybar, 0.25, n, prior, True, rng) == 0.5
        assert rng.bit_generator.state == before

    @given(EDGE_N, st.integers(0, 4), st.floats(-0.5, 1.5), st.floats(1e-6, 0.25),
           st.floats(1e-3, 1e9), st.floats(-1.0, 2.0), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_ybar_at_the_s_sq_bound(self, n, ulps, mu, sigma_sq, omega_sq_inv,
                                    ybar_star, seed):
        # s_sq = n/(n-1) ybar (1 - ybar) at ybar = 1/2, then a few ulps below
        s_sq = n / (n - 1.0) * 0.5 * (1.0 - 0.5)
        for _ in range(ulps):
            s_sq = math.nextafter(s_sq, 0.0)
        try:
            ybar = draw_ybar(mu, sigma_sq, s_sq, omega_sq_inv, ybar_star, n, True,
                             np.random.default_rng(seed))
        except DpGibbsError:
            return
        assert math.isfinite(ybar)
        assert stats_feasible(ybar, s_sq, n)

    @given(EDGE_N, st.floats(1e-3, 0.999), st.integers(1, 4), st.floats(0.01, 0.99),
           st.floats(0.0, 1.0), st.floats(1e-4, 2.0), st.floats(-0.5, 2.0),
           st.sampled_from(EDGE_PRIORS), st.booleans(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_sigma_sq_at_the_tgm_cap(self, n, eps2_share, ulps, mu, ybar, s_sq,
                                     s_sq_star, prior, constrained, seed):
        # The gamma kernel returns the smallest precisions it may, a few ulps
        # above the floor, which puts sigma_sq a few ulps below its cap.
        lam = eps2_share * 2.0 * (n - 1.0) / n * n

        def floor_draw(shape, rate, lo, hi, rng):
            for _ in range(ulps):
                lo = math.nextafter(lo, math.inf)
            return lo

        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gibbs, "sample_trunc_gamma", floor_draw)
            sigma_sq = draw_sigma_sq(mu, ybar, s_sq, n, prior, constrained, lam, rng)
        assert 0.0 < sigma_sq < (n - 1.0) / (2.0 * lam)
        assert (n - 1.0) / (2.0 * sigma_sq) > lam
        if constrained:
            assert pair_feasible(mu, sigma_sq)
        try:
            s_sq_new = sample_tgm((n - 1.0) / 2.0, (n - 1.0) / (2.0 * sigma_sq), lam,
                                  s_sq_star, math.inf, rng)
            mu_new = draw_mu(ybar, sigma_sq, n, prior, True, rng)
        except DpGibbsError:
            return
        assert math.isfinite(s_sq_new) and s_sq_new > 0.0
        if sigma_sq <= 0.25:
            assert pair_feasible(mu_new, sigma_sq)


class TestRunChain:
    def test_eps2_too_large_rejected(self):
        rel = unit_release(n=20, eps2=2.0)  # 2(n-1)/n = 1.9
        with pytest.raises(ConfigurationError):
            run_chain(rel, PriorSpec.flat(), ConstraintMode.UNCONSTRAINED,
                      SamplerConfig(iters=100, seed=0))

    def test_force_flag_allows_large_eps2(self):
        rel = unit_release(n=20, eps2=2.0)
        draws = run_chain(rel, PriorSpec.flat(), ConstraintMode.UNCONSTRAINED,
                          SamplerConfig(iters=200, seed=0),
                          force_sigma_constraint=True)
        cap = (20 - 1) / (2 * 20 * 2.0)
        assert np.all(draws.sigma_sq < cap)

    def test_flat_prior_needs_n_at_least_three(self):
        rel = unit_release(n=2)
        with pytest.raises(ConfigurationError):
            run_chain(rel, PriorSpec.flat(), ConstraintMode.UNCONSTRAINED,
                      SamplerConfig(iters=100, seed=0))

    def test_burn_in_and_thin_lengths(self):
        rel = unit_release()
        cfg = SamplerConfig(iters=1000, seed=1, burn_in=100, thin=3)
        draws = run_chain(rel, PriorSpec.flat(), ConstraintMode.UNCONSTRAINED, cfg)
        assert len(draws) == 300

    def test_default_burn_in_is_ten_percent(self):
        cfg = SamplerConfig(iters=1000, seed=1)
        assert cfg.effective_burn_in == 100

    def test_seed_determinism(self):
        rel = unit_release()
        cfg = SamplerConfig(iters=500, seed=42)
        a = run_chain(rel, PriorSpec.flat(), ConstraintMode.MOMENT_CONSTRAINED, cfg)
        b = run_chain(rel, PriorSpec.flat(), ConstraintMode.MOMENT_CONSTRAINED, cfg)
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.s_sq, b.s_sq)

    def test_determinism_across_thread_counts(self):
        rel = unit_release()
        cfg = SamplerConfig(iters=400, seed=9)

        def work(_):
            return run_chain(rel, PriorSpec.flat(), ConstraintMode.UNCONSTRAINED, cfg).mu

        serial = work(None)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, range(4)))
        for r in results:
            np.testing.assert_array_equal(r, serial)

    def test_rescaled_release_matches_unit_release(self):
        # same seed, same chain, different presentation scales
        unit = unit_release(ybar_star=0.343, s_sq_star=0.4716 ** 2, n=43)
        scaled = PrivateRelease(ybar_star=34.3, s_sq_star=47.16 ** 2, n=43,
                                budget=Budget(0.25, 0.25), bounds=Bounds(0, 100))
        cfg = SamplerConfig(iters=300, seed=5)
        a = run_chain(unit, PriorSpec.flat(), ConstraintMode.UNCONSTRAINED, cfg)
        b = run_chain(scaled, PriorSpec.flat(), ConstraintMode.UNCONSTRAINED, cfg)
        np.testing.assert_allclose(a.mu, b.mu, rtol=1e-12)

    def test_ybar_mean_between_release_and_posterior_mu(self):
        rel = unit_release()
        draws = run_chain(rel, PriorSpec.flat(), ConstraintMode.UNCONSTRAINED,
                          SamplerConfig(iters=30_000, seed=6))
        lo = min(rel.ybar_star, draws.mu.mean())
        hi = max(rel.ybar_star, draws.mu.mean())
        assert lo - 0.005 <= draws.ybar.mean() <= hi + 0.005

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [20, 50])
    def test_posterior_matches_grid_oracle(self, n):
        rel = unit_release(ybar_star=0.43, s_sq_star=0.28 ** 2, n=n)
        draws = run_chain(rel, PriorSpec.flat(), ConstraintMode.UNCONSTRAINED,
                          SamplerConfig(iters=100_000, seed=7, burn_in=0))
        mu_oracle, sig_oracle = flat_posterior_grid_oracle(0.43, 0.28 ** 2, n,
                                                           0.25, 0.25)
        assert abs(draws.mu.mean() - mu_oracle) < 3 * mc_se(draws.mu)
        assert abs(draws.sigma_sq.mean() - sig_oracle) < 3 * mc_se(draws.sigma_sq)

    @pytest.mark.slow
    def test_per_iteration_cost_independent_of_n(self):
        cfg = SamplerConfig(iters=4000, seed=0)

        def elapsed(n):
            rel = unit_release(n=n)
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                run_chain(rel, PriorSpec.flat(), ConstraintMode.UNCONSTRAINED, cfg)
                best = min(best, time.perf_counter() - t0)
            return best

        elapsed(200)  # warm-up
        t_small = elapsed(200)
        t_big = elapsed(400)
        assert abs(t_big - t_small) / t_small < 0.20


@pytest.fixture(scope="module")
def chain():
    return run_chain(unit_release(), PriorSpec.flat(),
                     ConstraintMode.UNCONSTRAINED,
                     SamplerConfig(iters=5000, seed=11))


class TestPredictive:

    def test_plain_mode_spreads_beyond_bounds(self, chain):
        rng = np.random.default_rng(0)
        out = predictive_draws(chain, PredictiveMode.PLAIN, Bounds(0, 1), rng)
        assert out.size == len(chain)
        assert (out < 0).any() or (out > 1).any()

    def test_clip_mode_stays_inside(self, chain):
        rng = np.random.default_rng(0)
        out = predictive_draws(chain, PredictiveMode.CLIP_AD_HOC, Bounds(0, 100), rng)
        assert out.min() >= 0.0 and out.max() <= 100.0

    def test_clip_equals_clipped_plain_under_same_stream(self, chain):
        plain = predictive_draws(chain, PredictiveMode.PLAIN, Bounds(0, 1),
                                 np.random.default_rng(42))
        clipped = predictive_draws(chain, PredictiveMode.CLIP_AD_HOC, Bounds(0, 1),
                                   np.random.default_rng(42))
        np.testing.assert_allclose(np.clip(plain, 0.0, 1.0), clipped)

    def test_truncated_mode_stays_inside(self, chain):
        rng = np.random.default_rng(3)
        out = predictive_draws(chain, PredictiveMode.TRUNCATED_PER_DRAW,
                               Bounds(0, 100), rng)
        assert out.min() >= 0.0 and out.max() <= 100.0

    def test_empty_chain_rejected(self, chain):
        from dpgibbs.gibbs import PosteriorDraws

        empty = PosteriorDraws(mu=np.array([]), sigma_sq=np.array([]),
                               ybar=np.array([]), s_sq=np.array([]),
                               omega_sq_inv=np.array([]), config=chain.config)
        with pytest.raises(ValueError):
            predictive_draws(empty, PredictiveMode.PLAIN, Bounds(0, 1),
                             np.random.default_rng(0))
