import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import dpgibbs.gibbs as gibbs
from dpgibbs.augmented import run_augmented_chain
from dpgibbs.distributions import UniformBlock, sample_tgm
from dpgibbs.errors import ConfigurationError, DpGibbsError
from dpgibbs.feasible import mean_window, pair_feasible, snap_mean, stats_feasible
from dpgibbs.gibbs import (
    ConstraintMode,
    GibbsState,
    PredictiveMode,
    PriorSpec,
    SamplerConfig,
    draw_mu,
    draw_sigma_sq,
    gibbs_step,
    init_state,
    predictive_draws,
    run_chain,
)
from dpgibbs.release import UNIT, Bounds, Budget, PrivateRelease
from dpgibbs.summary import ess, mc_se
from oracles import (
    collapsed_joint_draws,
    flat_posterior_grid_oracle,
    geweke_z,
    gibbs_step_reference,
    nig_posterior_grid_oracle,
    successive_conditional_draws,
)


LEAD_RELEASE = PrivateRelease(ybar_star=34.30, s_sq_star=47.16 ** 2, n=43,
                              budget=Budget(0.25, 0.25), bounds=Bounds(0.0, 100.0))
LEAD_PRIOR = PriorSpec.conjugate(mu0=12.5, kappa0=1.0, nu0=1.0, sigma0_sq=3.8 ** 2)


def unit_release(ybar_star=0.43, s_sq_star=0.28 ** 2, n=50, eps1=0.25, eps2=0.25):
    return PrivateRelease(ybar_star=ybar_star, s_sq_star=s_sq_star, n=n,
                          budget=Budget(eps1, eps2), bounds=UNIT)


class TestPriorSpec:
    def test_flat_is_the_conjugate_limit(self):
        flat = PriorSpec.flat()
        assert flat == PriorSpec(kind="flat")
        assert (flat.mu0, flat.kappa0, flat.nu0, flat.sigma0_sq) == (0.0, 0.0, -3.0, 0.0)

    @pytest.mark.parametrize("field, value", [("kappa0", 1.0), ("nu0", 0.0),
                                              ("sigma0_sq", 0.1), ("mu0", math.nan)])
    def test_flat_with_other_hyperparameters_rejected(self, field, value):
        with pytest.raises(ValueError):
            PriorSpec(kind="flat", **{field: value})

    @pytest.mark.parametrize("field, value", [("kappa0", 0.0), ("nu0", -1.0),
                                              ("sigma0_sq", 0.0), ("mu0", math.inf)])
    def test_conjugate_needs_positive_hyperparameters(self, field, value):
        good = dict(mu0=12.5, kappa0=1.0, nu0=1.0, sigma0_sq=14.44)
        with pytest.raises(ValueError):
            PriorSpec.conjugate(**{**good, field: value})

    def test_to_unit_maps_location_and_scale(self):
        unit = PriorSpec.conjugate(12.5, 2.0, 3.0, 14.44).to_unit(Bounds(-10.0, 90.0))
        assert unit == PriorSpec.conjugate((12.5 + 10.0) / 100.0, 2.0, 3.0, 14.44 / 1e4)
        flat = PriorSpec.flat().to_unit(Bounds(2.0, 4.0))
        assert (flat.kind, flat.kappa0, flat.nu0, flat.sigma0_sq) == ("flat", 0.0, -3.0, 0.0)

    def test_flat_conditionals_match_the_flat_formulas(self):
        # the conjugate formulas at kappa0 = 0, nu0 = -3, sigma0_sq = 0 give
        # N(ybar, sigma_sq/n) and shape (n-2)/2, rate ((n-1)s^2 + n(ybar-mu)^2)/2,
        # whatever mu0 is
        n, ybar, sigma_sq, s_sq, mu = 40, 0.61, 0.04, 0.03, 0.55
        seen = []

        def record(shape, rate, lo, hi, rng):
            seen.append((shape, rate))
            return 1.0 / sigma_sq

        for prior in (PriorSpec.flat(), PriorSpec.flat().to_unit(Bounds(-3.0, 1.0))):
            rng = np.random.default_rng(0)
            z = np.random.default_rng(0).standard_normal()
            mu_draw = draw_mu(ybar, sigma_sq, n, prior, False, rng)
            assert mu_draw == ybar + math.sqrt(sigma_sq / n) * z
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gibbs, "sample_trunc_gamma", record)
                draw_sigma_sq(mu, ybar, s_sq, n, prior, False, None, rng)
            assert seen.pop() == ((n - 2.0) / 2.0,
                                  ((n - 1.0) * s_sq + n * (ybar - mu) ** 2) / 2.0)


class TestInitState:
    def test_negative_released_variance_gets_floor(self):
        rel = unit_release(s_sq_star=-0.3)
        state = init_state(rel)
        assert state.sigma_sq == 1e-4
        assert state.s_sq == 1e-4

    def test_released_mean_clamped_to_unit(self):
        state = init_state(unit_release(ybar_star=1.7))
        assert state.ybar == 1.0
        state = init_state(unit_release(ybar_star=-0.2))
        assert state.ybar == 0.0

    def test_in_range_values_pass_through(self):
        state = init_state(unit_release(ybar_star=0.4, s_sq_star=0.02))
        assert state.ybar == 0.4
        assert state.sigma_sq == 0.02

    def test_large_variance_capped_at_quarter(self):
        state = init_state(unit_release(s_sq_star=0.9))
        assert state.sigma_sq == 0.25

    def test_omega_initialization(self):
        rel = unit_release(n=43, eps1=0.25)
        state = init_state(rel)
        assert state.omega_sq_inv == pytest.approx(0.25 ** 2 * 43 ** 2 / 2.0)


class TestGibbsStep:
    def test_sigma_at_quarter_forces_central_mu(self):
        rel = unit_release()
        state = GibbsState(mu=0.4, sigma_sq=0.25, ybar=0.4, s_sq=0.2,
                           omega_sq_inv=100.0)
        out = gibbs_step(state, rel, PriorSpec.flat(),
                         ConstraintMode.MOMENT_CONSTRAINED, np.random.default_rng(0))
        assert out.mu == 0.5

    def test_flat_unconstrained_mu_conditional(self):
        # draw_mu, the latent-value sampler's mu | ybar, must be N(ybar, sigma_sq/n)
        rng = np.random.default_rng(1)
        draws = np.array([draw_mu(0.61, 0.04, 40, PriorSpec.flat(), False, rng)
                          for _ in range(4000)])
        sd = math.sqrt(0.04 / 40)
        assert abs(draws.mean() - 0.61) < 4 * sd / math.sqrt(draws.size)
        assert abs(draws.std() - sd) < 0.05 * sd

    def test_nig_mu_conditional_center(self):
        prior = PriorSpec.conjugate(mu0=0.2, kappa0=10.0, nu0=1.0, sigma0_sq=0.01)
        rng = np.random.default_rng(2)
        draws = np.array([draw_mu(0.6, 0.04, 40, prior, False, rng) for _ in range(4000)])
        expected = (40 * 0.6 + 10 * 0.2) / 50
        sd = math.sqrt(0.04 / 50)
        assert abs(draws.mean() - expected) < 4 * sd / math.sqrt(draws.size)

    @pytest.mark.parametrize("prior", [PriorSpec.flat(),
                                       PriorSpec.conjugate(mu0=0.2, kappa0=10.0, nu0=1.0,
                                                           sigma0_sq=0.01)])
    def test_blocked_mu_has_the_closed_form(self, monkeypatch, prior):
        # With ybar integrated out and (sigma_sq, s_sq, omega_sq) held fixed,
        # gibbs_step's mu is the prior N(mu0, sigma_sq/kappa0) times
        # N(ybar_star | mu, sigma_sq/n + omega_sq), whatever the state's ybar.
        # Under the conjugate prior the later scale move also moves mu, so its
        # slice width is set to 0, which makes that move the identity under
        # both priors.
        monkeypatch.setattr(gibbs, "_SLICE_WIDTH", 0.0)
        rel = unit_release(n=40, ybar_star=0.43)
        state = GibbsState(mu=0.5, sigma_sq=0.04, ybar=0.61, s_sq=0.03, omega_sq_inv=50.0)
        rng = np.random.default_rng(3)
        draws = np.array([
            gibbs_step(state, rel, prior, ConstraintMode.UNCONSTRAINED, rng).mu
            for _ in range(4000)
        ])
        v = 0.04 / 40 + 1.0 / 50.0
        prec = prior.kappa0 / 0.04 + 1.0 / v
        expected = (prior.kappa0 * prior.mu0 / 0.04 + 0.43 / v) / prec
        sd = math.sqrt(1.0 / prec)
        assert abs(draws.mean() - expected) < 4 * sd / math.sqrt(draws.size)
        assert abs(draws.std() - sd) < 0.05 * sd

    def test_footnote_region_always_enforced(self):
        rel = unit_release(n=20, eps2=1.5)
        cap = (20 - 1) / (2 * 20 * 1.5)
        state = init_state(rel)
        rng = np.random.default_rng(3)
        for _ in range(500):
            state = gibbs_step(state, rel, PriorSpec.flat(),
                               ConstraintMode.UNCONSTRAINED, rng)
            assert state.sigma_sq < cap

    def test_constrained_step_preserves_feasibility(self):
        rel = unit_release()
        state = init_state(rel)
        rng = np.random.default_rng(4)
        for _ in range(500):
            state = gibbs_step(state, rel, PriorSpec.flat(),
                               ConstraintMode.MOMENT_CONSTRAINED, rng)
            assert pair_feasible(state.mu, state.sigma_sq)
            assert stats_feasible(state.ybar, state.s_sq, rel.n)


class _NoRandomness:
    """A generator stub whose every draw fails the test."""

    def random(self, *args):
        raise AssertionError("read a uniform")

    def standard_normal(self, *args):
        raise AssertionError("read a standard normal")


EDGE_PRIORS = (PriorSpec.flat(),
               PriorSpec.conjugate(mu0=0.3, kappa0=2.0, nu0=3.0, sigma0_sq=0.02))
EDGE_N = st.one_of(st.integers(3, 60), st.integers(61, 10 ** 6))


def _log_uniform(lo, hi):
    return st.floats(0.0, 1.0).map(lambda t: lo * (hi / lo) ** t)


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

    @given(EDGE_N, st.floats(-0.5, 1.5), st.floats(0.25, 1e6), st.sampled_from(EDGE_PRIORS))
    @settings(max_examples=100, deadline=None)
    def test_one_point_windows_read_no_randomness(self, n, ybar, v, prior):
        # mu at sigma_sq >= 1/4 and ybar at (n-1)/n s_sq >= 1/4 are 1/2, drawn from nothing
        assert draw_mu(ybar, v, n, prior, True, _NoRandomness()) == 0.5
        s_sq = n / (n - 1.0) * v
        while (n - 1.0) / n * s_sq < 0.25:
            s_sq = math.nextafter(s_sq, math.inf)
        window = mean_window(min((n - 1.0) / n * s_sq, 0.25))
        assert gibbs._draw_mean(ybar, 0.1, window, s_sq, n / (n - 1.0), _NoRandomness()) == 0.5

    @given(EDGE_N, st.integers(0, 4), st.floats(-0.5, 1.5), st.floats(1e-6, 0.25),
           st.floats(1e-3, 1e9), st.floats(-1.0, 2.0), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_ybar_at_the_s_sq_bound(self, n, ulps, mu, sigma_sq, omega_sq_inv,
                                    ybar_star, seed):
        # s_sq = n/(n-1) ybar (1 - ybar) at ybar = 1/2, then a few ulps below
        s_sq = n / (n - 1.0) * 0.5 * (1.0 - 0.5)
        for _ in range(ulps):
            s_sq = math.nextafter(s_sq, 0.0)
        prec = omega_sq_inv + n / sigma_sq  # ybar | mu as gibbs_step draws it
        try:
            ybar = gibbs._draw_mean((ybar_star * omega_sq_inv + n * mu / sigma_sq) / prec,
                                    math.sqrt(1.0 / prec),
                                    mean_window(min((n - 1.0) / n * s_sq, 0.25)), s_sq,
                                    n / (n - 1.0), np.random.default_rng(seed))
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

    @given(EDGE_N, st.floats(0.01, 1.5), st.sampled_from(["pair", "cap"]), st.integers(0, 4),
           st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.sampled_from(["free", "cap", "half"]),
           st.floats(1e-6, 1.0), _log_uniform(1e-8, 1e14), st.floats(-1.0, 2.0),
           st.floats(-0.5, 2.0), st.sampled_from(EDGE_PRIORS), st.sampled_from(ConstraintMode),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_sweeps_from_edge_states(self, n, eps2_share, sigma_edge, ulps, mu, ybar, s_edge,
                                     s_share, omega_sq_inv, ybar_star, s_sq_star, prior, mode,
                                     seed):
        # sigma_sq a few ulps below mu (1 - mu) or below the TGM cap (eps2 up to
        # 1.5 times the 2(n-1)/n limit, as force_sigma_constraint allows); s_sq
        # at its cap, or at ybar = 1/2 with (n-1)/n s_sq >= 1/4; omega_sq from
        # 1e-14 to 1e8.  Every sweep keeps the state finite, below the TGM cap
        # and, in constrained mode, feasible.
        constrained = mode is ConstraintMode.MOMENT_CONSTRAINED
        eps2 = eps2_share * 2.0 * (n - 1.0) / n
        lam = eps2 * n
        sigma_sq = math.nextafter((n - 1.0) / (2.0 * lam), 0.0)
        while (n - 1.0) / (2.0 * sigma_sq) <= lam:
            sigma_sq = math.nextafter(sigma_sq, 0.0)
        if sigma_edge == "pair" or constrained:
            sigma_sq = min(sigma_sq, mu * (1.0 - mu))
        for _ in range(ulps):
            sigma_sq = math.nextafter(sigma_sq, 0.0)
        if s_edge == "half":
            ybar = 0.5
            s_sq = n / (n - 1.0) * 0.25
            while (n - 1.0) / n * s_sq < 0.25:
                s_sq = math.nextafter(s_sq, 1.0)
        else:
            s_sq = n / (n - 1.0) * ybar * (1.0 - ybar)
            if s_edge == "free":
                s_sq *= s_share
        state = GibbsState(mu=mu, sigma_sq=sigma_sq, ybar=ybar, s_sq=s_sq,
                           omega_sq_inv=omega_sq_inv)
        rel = PrivateRelease(ybar_star=ybar_star, s_sq_star=s_sq_star, n=n,
                             budget=Budget(1.0, eps2), bounds=UNIT)
        rng = UniformBlock(np.random.default_rng(seed))
        for _ in range(3):
            try:
                state = gibbs_step(state, rel, prior, mode, rng)
            except DpGibbsError:
                return
            assert all(map(math.isfinite, (state.mu, state.sigma_sq, state.ybar, state.s_sq,
                                           state.omega_sq_inv)))
            assert (n - 1.0) / (2.0 * state.sigma_sq) > lam
            if constrained:
                assert pair_feasible(state.mu, state.sigma_sq)
                assert stats_feasible(state.ybar, state.s_sq, n)


class _CountedUniforms(UniformBlock):
    """A UniformBlock that counts the uniforms read from it."""

    __slots__ = ("count",)

    def __init__(self, seed):
        super().__init__(np.random.default_rng(seed))
        draw, self.count = self.random, 0

        def random():
            self.count += 1
            return draw()

        self.random = random


# Uniforms one constrained sweep may read: mu block 2, ybar 1, the sigma_sq gamma 1, the
# scale move's slice step 2 + _SLICE_SHRINKS, the TGM component 1 and its gamma 1, the
# inverse Gaussian 2.  (UniformBlock's normal skips a zero uniform, a 2^-53 event.)
SWEEP_UNIFORMS = 10 + gibbs._SLICE_SHRINKS


class TestConjugateScaleMove:
    @given(st.integers(3, 1000), st.floats(0.01, 1.5), st.floats(-1.0, 2.0),
           _log_uniform(1e-3, 1e3), st.floats(1e-6, 0.25), st.sampled_from([0, 1]),
           st.integers(0, 3), st.floats(1e-6, 0.25), st.sampled_from([0, 1]),
           _log_uniform(1e-2, 1e6), st.floats(-0.5, 1.5), st.floats(-0.2, 0.5),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_constrained_sweep_from_snapped_edges(self, n, eps2_share, mu0, kappa0, v, mu_end,
                                                  ulps, w, ybar_end, omega_sq_inv, ybar_star,
                                                  s_sq_star, seed):
        # mu snapped onto an end of its window for sigma_sq, ybar onto an end of its window
        # for s_sq; sigma_sq at most a few ulps below the TGM cap (eps2 up to 1.5 times the
        # 2(n-1)/n limit); mu0 inside and outside [0, 1].  One sweep keeps the state finite,
        # below the cap and feasible, and reads a bounded number of uniforms.
        eps2 = eps2_share * 2.0 * (n - 1.0) / n
        lam = eps2 * n
        sigma_sq = min(v, math.nextafter((n - 1.0) / (2.0 * lam), 0.0))
        while (n - 1.0) / (2.0 * sigma_sq) <= lam:
            sigma_sq = math.nextafter(sigma_sq, 0.0)
        for _ in range(ulps):
            sigma_sq = math.nextafter(sigma_sq, 0.0)
        mu = snap_mean(mean_window(sigma_sq)[mu_end], sigma_sq, 1.0)
        s_sq = n / (n - 1.0) * w
        ybar = snap_mean(mean_window(min((n - 1.0) / n * s_sq, 0.25))[ybar_end], s_sq,
                         n / (n - 1.0))
        assert pair_feasible(mu, sigma_sq) and stats_feasible(ybar, s_sq, n)
        rel = PrivateRelease(ybar_star=ybar_star, s_sq_star=s_sq_star, n=n,
                             budget=Budget(1.0, eps2), bounds=UNIT)
        prior = PriorSpec.conjugate(mu0=mu0, kappa0=kappa0, nu0=3.0, sigma0_sq=0.02)
        rng = _CountedUniforms(seed)
        state = gibbs_step(GibbsState(mu, sigma_sq, ybar, s_sq, omega_sq_inv), rel, prior,
                           ConstraintMode.MOMENT_CONSTRAINED, rng)
        assert all(map(math.isfinite, (state.mu, state.sigma_sq, state.ybar, state.s_sq,
                                       state.omega_sq_inv)))
        assert (n - 1.0) / (2.0 * state.sigma_sq) > lam
        assert pair_feasible(state.mu, state.sigma_sq)
        assert stats_feasible(state.ybar, state.s_sq, n)
        assert rng.count <= SWEEP_UNIFORMS


class TestExtremeRegimes:
    """Whole chains at n from 3 to 10**6, eps from 1e-4 up to the
    2(n-1)/n limit (or beyond it under force_sigma_constraint) and releases
    far outside [0, 1]: every draw is finite, every collapsed draw below the
    TGM cap and every constrained draw feasible, or the sampler raises a
    DpGibbsError."""

    @given(_log_uniform(3.0, 1e6), _log_uniform(1e-4, 10.0), st.floats(0.0, 1.0),
           st.floats(-3.0, 4.0), st.floats(-1.0, 2.0), st.sampled_from(EDGE_PRIORS),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_chains_finite_and_feasible(self, n_real, eps1, eps2_share, ybar_star, s_sq_star,
                                        prior, seed):
        n = min(max(round(n_real), 3), 10 ** 6)
        eps2 = 1e-4 * (2.0 * (n - 1.0) / n * (1.0 - 1e-9) / 1e-4) ** eps2_share
        rel = PrivateRelease(ybar_star=ybar_star, s_sq_star=s_sq_star, n=n,
                             budget=Budget(eps1, eps2), bounds=UNIT)
        for mode in ConstraintMode:
            constrained = mode is ConstraintMode.MOMENT_CONSTRAINED
            self._check(lambda: run_chain(rel, prior, mode,
                                          SamplerConfig(iters=40, seed=seed, burn_in=0)),
                        constrained, n, eps2 * n)
            if n <= 300:
                self._check(lambda: run_augmented_chain(
                    rel, constrained, SamplerConfig(iters=20, seed=seed, burn_in=0),
                    prior=prior), constrained, n)

    @given(_log_uniform(3.0, 1e6), _log_uniform(1e-4, 10.0), st.floats(1.0, 1.5),
           st.floats(-3.0, 4.0), st.floats(-1.0, 2.0), st.sampled_from(EDGE_PRIORS),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_forced_sigma_constraint_chains(self, n_real, eps1, eps2_share, ybar_star,
                                            s_sq_star, prior, seed):
        # eps2 >= 2(n-1)/n, where only force_sigma_constraint lets the chain run
        n = min(max(round(n_real), 3), 10 ** 6)
        eps2 = eps2_share * 2.0 * (n - 1.0) / n
        rel = PrivateRelease(ybar_star=ybar_star, s_sq_star=s_sq_star, n=n,
                             budget=Budget(eps1, eps2), bounds=UNIT)
        for mode in ConstraintMode:
            self._check(lambda: run_chain(rel, prior, mode,
                                          SamplerConfig(iters=40, seed=seed, burn_in=0),
                                          force_sigma_constraint=True),
                        mode is ConstraintMode.MOMENT_CONSTRAINED, n, eps2 * n)

    @staticmethod
    def _check(run, constrained, n, lam=None):
        """lam: the collapsed sampler's TGM rate eps2 n, which its draws keep below."""
        try:
            draws = run()
        except DpGibbsError:
            return
        for col in (draws.mu, draws.sigma_sq, draws.ybar, draws.s_sq):
            assert np.isfinite(col).all()
        if lam is not None:
            assert ((n - 1.0) / (2.0 * draws.sigma_sq) > lam).all()
        if constrained:
            assert all(pair_feasible(m, v) for m, v in zip(draws.mu, draws.sigma_sq))
            assert all(stats_feasible(y, s, n) for y, s in zip(draws.ybar, draws.s_sq))


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
        with pytest.raises(ConfigurationError, match="flat prior needs n >= 3"):
            run_augmented_chain(rel, True, SamplerConfig(iters=100, seed=0))

    def test_eps2_limit_is_for_the_collapsed_sampler_only(self):
        rel = unit_release(n=20, eps2=2.0)  # 2(n-1)/n = 1.9
        draws = run_augmented_chain(rel, True, SamplerConfig(iters=50, seed=0))
        assert np.isfinite(draws.sigma_sq).all()
        with pytest.raises(ConfigurationError, match="eps2"):
            gibbs.check_config(20, Budget(1.0, 2.0), PriorSpec.flat(), True)
        gibbs.check_config(20, Budget(1.0, 2.0), PriorSpec.flat(), True,
                           force_sigma_constraint=True)
        gibbs.check_config(20, Budget(1.0, 2.0), PriorSpec.flat(), False)

    def test_burn_in_and_thin_lengths(self):
        rel = unit_release()
        cfg = SamplerConfig(iters=1000, seed=1, burn_in=100, thin=3)
        draws = run_chain(rel, PriorSpec.flat(), ConstraintMode.UNCONSTRAINED, cfg)
        assert len(draws) == 300

    def test_default_burn_in_is_ten_percent(self):
        cfg = SamplerConfig(iters=1000, seed=1)
        assert cfg.kept.start == 100

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
    @pytest.mark.parametrize("case", ["informative", "lead"])
    def test_nig_posterior_matches_grid_oracle(self, case):
        # informative: a prior the data pull against, so that an error in
        # the prior's terms of the sigma_sq conditional moves both means by
        # many MC SEs.  lead: the blood-lead release and prior, given on
        # [0, 100] and compared on [0, 1].
        if case == "informative":
            rel = unit_release(ybar_star=0.4, s_sq_star=0.03, n=50, eps1=1.0, eps2=1.0)
            prior = PriorSpec.conjugate(mu0=0.7, kappa0=5.0, nu0=4.0, sigma0_sq=0.02)
            unit = (0.7, 5.0, 4.0, 0.02)
        else:
            rel, prior, unit = LEAD_RELEASE, LEAD_PRIOR, (0.125, 1.0, 1.0, 0.038 ** 2)
        draws = run_chain(rel, prior, ConstraintMode.UNCONSTRAINED,
                          SamplerConfig(iters=100_000, seed=7, burn_in=1000))
        unit_rel = rel.to_unit()
        mu_oracle, sig_oracle = nig_posterior_grid_oracle(
            unit_rel.ybar_star, unit_rel.s_sq_star, rel.n, rel.budget.eps1, rel.budget.eps2,
            *unit)
        assert abs(draws.mu.mean() - mu_oracle) < 3 * mc_se(draws.mu)
        assert abs(draws.sigma_sq.mean() - sig_oracle) < 3 * mc_se(draws.sigma_sq)

    @pytest.mark.slow
    @pytest.mark.parametrize("case, mode, iters, seeds", [
        ("lead", ConstraintMode.UNCONSTRAINED, 120_000, (41, 42)),
        ("lead", ConstraintMode.MOMENT_CONSTRAINED, 120_000, (43, 44)),
        ("n316", ConstraintMode.UNCONSTRAINED, 60_000, (45, 46)),
        ("n316", ConstraintMode.MOMENT_CONSTRAINED, 60_000, (47, 48)),
    ])
    def test_matches_the_reference_sweep(self, monkeypatch, case, mode, iters, seeds):
        # The blocked sweep with its scale move against one conditional draw per
        # coordinate: the blood-lead release under its conjugate prior, and a
        # flat-prior release at n = 316, eps 0.1.
        if case == "lead":
            rel, prior = LEAD_RELEASE, LEAD_PRIOR
        else:
            rel, prior = unit_release(n=316, eps1=0.1, eps2=0.1), PriorSpec.flat()
        d1 = run_chain(rel, prior, mode, SamplerConfig(iters=iters, seed=seeds[0]))
        monkeypatch.setattr(gibbs, "gibbs_step",
                            lambda state, rel, prior, mode, rng, consts=None:
                            gibbs_step_reference(state, rel, prior, mode, rng))
        d2 = run_chain(rel, prior, mode, SamplerConfig(iters=iters, seed=seeds[1]))
        for a, b in ((d1.mu, d2.mu), (d1.sigma_sq, d2.sigma_sq)):
            se = math.hypot(mc_se(a), mc_se(b))
            assert abs(a.mean() - b.mean()) < 3 * se

    @pytest.mark.slow
    @pytest.mark.parametrize("mode, seed, mu_floor, sigma_sq_floor", [
        (ConstraintMode.UNCONSTRAINED, 61, 0.299, 0.165),
        (ConstraintMode.MOMENT_CONSTRAINED, 62, 0.253, 0.165)],
        ids=["unconstrained", "constrained"])
    def test_conjugate_lead_chain_mixes(self, mode, seed, mu_floor, sigma_sq_floor):
        # ESS per sweep of 20 000-sweep chains on the blood-lead release, seeds 100-129,
        # with a Metropolis scale move, log c ~ N(0, 2^2): mu 0.140-0.211 (unconstrained)
        # and 0.118-0.181 (constrained), sigma_sq 0.080-0.105 and 0.077-0.107; with a slice
        # step on log c: mu 0.387-0.483 and 0.326-0.397, sigma_sq 0.226-0.297 and
        # 0.223-0.268.  Each floor lies halfway between the two ranges.
        draws = run_chain(LEAD_RELEASE, LEAD_PRIOR, mode,
                          SamplerConfig(iters=20_000, seed=seed, burn_in=0))
        assert ess(draws.mu) / draws.mu.size >= mu_floor
        assert ess(draws.sigma_sq) / draws.sigma_sq.size >= sigma_sq_floor

    @pytest.mark.slow
    def test_per_iteration_cost_independent_of_n(self):
        # CPU time of this process, so that time the scheduler gives other
        # processes is not counted.  On a shared VM even CPU time drifts by
        # tens of percent over seconds, so each repeat times n = 200 and
        # n = 400 back to back (alternating which goes first) and the bound
        # applies to the median of the paired ratios.
        cfg = SamplerConfig(iters=10_000, seed=0)

        def cpu_seconds(n):
            rel = unit_release(n=n)
            t0 = time.process_time()
            run_chain(rel, PriorSpec.flat(), ConstraintMode.UNCONSTRAINED, cfg)
            return time.process_time() - t0

        cpu_seconds(200)  # warm-up
        ratios = []
        for i in range(9):
            t = {n: cpu_seconds(n) for n in ((200, 400) if i % 2 == 0 else (400, 200))}
            ratios.append(t[400] / t[200])
        assert abs(statistics.median(ratios) - 1.0) < 0.20


GEWEKE_PRIOR = PriorSpec.conjugate(mu0=0.2, kappa0=1.0, nu0=4.0, sigma0_sq=0.05)
GEWEKE_CASES = [(5, ConstraintMode.UNCONSTRAINED, 31), (5, ConstraintMode.MOMENT_CONSTRAINED, 32),
                (20, ConstraintMode.UNCONSTRAINED, 33), (20, ConstraintMode.MOMENT_CONSTRAINED, 34)]
# Four variants, each comparing two moments of four quantities: a two-sided
# family-wise level of 1% over the 32 comparisons.
GEWEKE_Z = float(ndtri(1.0 - 0.01 / (2 * 8 * len(GEWEKE_CASES))))
# A weak location prior spreads mu - mu0, and so ybar - mu0, over several
# sigma: there the scale move's N(ybar_star | ybar, omega_sq) term moves the
# acceptance most.  One variant, its own 1% family-wise level over 8 comparisons.
GEWEKE_WEAK_PRIOR = PriorSpec.conjugate(mu0=0.2, kappa0=0.02, nu0=4.0, sigma0_sq=0.05)
GEWEKE_WEAK_Z = float(ndtri(1.0 - 0.01 / (2 * 8)))
# The flat prior is proper on the constrained set only.  It takes the scale move's other
# branch (mu and ybar stay put); two variants, their own 1% family-wise level over 16
# comparisons.
GEWEKE_FLAT_CASES = [(5, 35), (20, 36)]
GEWEKE_FLAT_Z = float(ndtri(1.0 - 0.01 / (2 * 8 * len(GEWEKE_FLAT_CASES))))


def successive_conditional_z(prior, n, mode, seed, steps):
    """z of the chain's first and second moments of mu, log sigma_sq, ybar and s_sq
    against independent rejection draws from the joint, at eps 1/1."""
    eps = 1.0
    constrained = mode is ConstraintMode.MOMENT_CONSTRAINED
    rng = np.random.default_rng(seed)
    ref = collapsed_joint_draws(steps, n, eps, prior, constrained, rng)
    start = {k: float(v[0]) for k, v in ref.items()}
    chain = successive_conditional_draws(
        lambda state, rel: gibbs_step(state, rel, prior, mode, rng),
        start, steps, n, eps, eps, rng)
    return geweke_z(chain, ref)


class TestJointDistribution:
    """gibbs_step leaves the collapsed sampler's joint invariant.

    Geweke's successive-conditional test under a proper conjugate prior,
    and under the flat prior in constrained mode, where it is proper, on
    [0, 1] at eps 1/1: alternating release regeneration and sweeps
    must reproduce the first and second moments of mu, log sigma_sq,
    ybar and s_sq under independent rejection draws from the joint.
    """

    @pytest.mark.slow
    @pytest.mark.parametrize("n, mode, seed", GEWEKE_CASES)
    def test_successive_conditional_matches_the_joint(self, n, mode, seed):
        for key, z in successive_conditional_z(GEWEKE_PRIOR, n, mode, seed, 150_000).items():
            assert abs(z) < GEWEKE_Z, (key, z)

    @pytest.mark.slow
    def test_successive_conditional_under_a_weak_location_prior(self):
        z = successive_conditional_z(GEWEKE_WEAK_PRIOR, 10, ConstraintMode.UNCONSTRAINED, 51,
                                     400_000)
        for key, value in z.items():
            assert abs(value) < GEWEKE_WEAK_Z, (key, value)

    @pytest.mark.slow
    @pytest.mark.parametrize("n, seed", GEWEKE_FLAT_CASES)
    def test_successive_conditional_under_the_flat_prior(self, n, seed):
        z = successive_conditional_z(PriorSpec.flat(), n, ConstraintMode.MOMENT_CONSTRAINED, seed,
                                     150_000)
        for key, value in z.items():
            assert abs(value) < GEWEKE_FLAT_Z, (key, value)


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
