import copy
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpgibbs.augmented as augmented
import dpgibbs.harness as harness
from dpgibbs.augmented import _init_augmented, augmented_sweep, run_augmented_chain
from dpgibbs.distributions import sample_trunc_normal
from dpgibbs.errors import NumericalError
from dpgibbs.feasible import pair_feasible
from dpgibbs.gibbs import (
    ConstraintMode,
    PriorSpec,
    SamplerConfig,
    draw_mu,
    draw_sigma_sq,
    run_chain,
)
from dpgibbs.release import UNIT, Budget, PrivateRelease
from dpgibbs.summary import kde_mode, mc_se
from oracles import augmented_sweep_reference, mh_accept_prob, moments_swap_update


def unit_release(ybar_star=0.43, s_sq_star=0.28 ** 2, n=50, eps1=0.25, eps2=0.25):
    return PrivateRelease(ybar_star=ybar_star, s_sq_star=s_sq_star, n=n,
                          budget=Budget(eps1, eps2), bounds=UNIT)


class TestMhAcceptProb:
    def test_unchanged_moments_accept(self):
        rel = unit_release()
        assert mh_accept_prob(0.4, 0.4, 0.05, 0.05, rel) == 1.0

    def test_known_exponent(self):
        # eps1 n = 10; moving ybar 0.1 farther with s_sq unchanged -> e^-1
        rel = unit_release(ybar_star=0.5, n=50, eps1=0.2)
        r = mh_accept_prob(0.5, 0.6, 0.05, 0.05, rel)
        assert r == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_strict_improvement_accepts(self):
        rel = unit_release(ybar_star=0.5, s_sq_star=0.04)
        assert mh_accept_prob(0.9, 0.5, 0.2, 0.04, rel) == 1.0

    def test_detailed_balance_ratio(self):
        rel = unit_release(ybar_star=0.5, s_sq_star=0.04, n=50, eps1=0.2, eps2=0.3)
        a, b = 0.41, 0.62
        c, d = 0.03, 0.11
        fwd = mh_accept_prob(a, b, c, d, rel)
        rev = mh_accept_prob(b, a, d, c, rel)
        e1, e2 = 0.2 * 50, 0.3 * 50
        expo = (-e1 * (abs(0.5 - b) - abs(0.5 - a))
                - e2 * (abs(0.04 - d) - abs(0.04 - c)))
        assert math.log(fwd) - math.log(rev) == pytest.approx(expo, abs=1e-12)


class TestMomentsSwap:
    def test_two_point_collapse(self):
        assert moments_swap_update(0.5, 0.5, 1.0, 0.0, 2) == (0.0, 0.0)

    def test_identity_swap(self):
        yb, s2 = moments_swap_update(0.37, 0.021, 0.5, 0.5, 13)
        assert yb == 0.37 and s2 == 0.021

    @given(st.integers(2, 20), st.integers(0, 19), st.floats(0.0, 1.0),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_recomputation(self, n, idx, new_val, seed):
        rng = np.random.default_rng(seed)
        y = rng.random(n)
        yb, s2 = float(y.mean()), float(y.var(ddof=1))
        i = idx % n
        got = moments_swap_update(yb, s2, float(y[i]), new_val, n)
        y[i] = new_val
        assert got[0] == pytest.approx(float(y.mean()), abs=1e-12)
        assert got[1] == pytest.approx(float(y.var(ddof=1)), abs=1e-12)

    def test_long_walk_drift_stays_small(self):
        rng = np.random.default_rng(1)
        y = rng.random(30)
        yb, s2 = float(y.mean()), float(y.var(ddof=1))
        for _ in range(5000):
            i = int(rng.integers(30))
            new = float(rng.random())
            yb, s2 = moments_swap_update(yb, s2, float(y[i]), new, 30)
            y[i] = new
        assert abs(yb - y.mean()) < 1e-8
        assert abs(s2 - y.var(ddof=1)) < 1e-8


class TestAugmentedChain:
    def test_constrained_latents_stay_in_bounds(self):
        rel = unit_release(n=25)
        rng = np.random.default_rng(0)
        state = _init_augmented(rel, rng)
        for _ in range(200):
            augmented_sweep(state, rel, PriorSpec.flat(), True, rng)
            assert state.y.min() >= 0.0 and state.y.max() <= 1.0
            assert pair_feasible(state.mu, state.sigma_sq)

    def test_unconstrained_matches_collapsed_sampler(self):
        rel = unit_release()
        d1 = run_chain(rel, PriorSpec.flat(), ConstraintMode.UNCONSTRAINED,
                       SamplerConfig(iters=40_000, seed=3))
        d2 = run_augmented_chain(rel, False, SamplerConfig(iters=25_000, seed=4))
        for a, b in ((d1.mu, d2.mu), (d1.sigma_sq, d2.sigma_sq)):
            se = math.hypot(mc_se(a), mc_se(b))
            assert abs(a.mean() - b.mean()) < 3 * se

    def test_constrained_variance_mode_below_release(self):
        rel = unit_release(ybar_star=0.43, s_sq_star=0.28 ** 2, n=50)
        draws = run_augmented_chain(rel, True, SamplerConfig(iters=15_000, seed=5))
        assert kde_mode(draws.sigma_sq) < rel.s_sq_star

    def test_determinism(self):
        rel = unit_release(n=20)
        cfg = SamplerConfig(iters=500, seed=8)
        a = run_augmented_chain(rel, True, cfg)
        b = run_augmented_chain(rel, True, cfg)
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.s_sq, b.s_sq)

    def test_nig_prior_supported(self):
        rel = unit_release(n=20)
        prior = PriorSpec.conjugate(0.3, 1.0, 1.0, 0.01)
        draws = run_augmented_chain(rel, True, SamplerConfig(iters=800, seed=9),
                                    prior=prior)
        assert len(draws) == 720  # 10% burn-in
        assert draws.omega_sq_inv is None

    def test_cached_moments_match_recomputation_during_run(self):
        rel = unit_release(n=30)
        rng = np.random.default_rng(10)
        state = _init_augmented(rel, rng)
        accepted = 0
        for _ in range(300):
            accepted += augmented_sweep(state, rel, PriorSpec.flat(), True, rng)
        assert abs(state.ybar - state.y.mean()) < 1e-10
        assert abs(state.s_sq - state.y.var(ddof=1)) < 1e-10
        assert accepted > 0

    def test_drift_guard_fails_the_chain_and_the_replication(self, monkeypatch):
        """A negative tolerance makes the first cache refresh, after 1000
        accepted swaps, report drift; the harness counts that replication
        as failed instead of crashing."""
        scenario = harness.Scenario(n=60, eps1=0.25, eps2=0.25, truth_mu=0.5,
                                    truth_sigma=0.2, mode="likelihood",
                                    prior=PriorSpec.flat(), reps=1, iters=400,
                                    base_seed=99)
        assert harness._one_rep(scenario, 0) is not None
        monkeypatch.setattr(augmented, "_DRIFT_TOL", -1.0)
        with pytest.raises(NumericalError, match="drifted"):
            run_augmented_chain(unit_release(), True, SamplerConfig(iters=2000, seed=1))
        assert harness._one_rep(scenario, 0) is None

    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("n", [3, 50, 1000])
    def test_scan_replays_reference_helpers(self, n, constrained):
        """One sweep's proposals and uniforms, fed one latent at a time
        through moments_swap_update and mh_accept_prob, accept the same
        latents and end at the same moments."""
        rel = unit_release(n=n, eps1=1.0, eps2=1.0)
        prior = PriorSpec.flat()
        rng = np.random.default_rng(n)
        state = _init_augmented(rel, rng)
        for _ in range(3):
            augmented_sweep(state, rel, prior, constrained, rng)
        before, replay = copy.deepcopy(state), copy.deepcopy(rng)
        accepted = augmented_sweep(state, rel, prior, constrained, rng)

        # The sweep's stream: mu, sigma_sq, n proposals, then n uniforms.
        mu = draw_mu(before.ybar, before.sigma_sq, n, prior, constrained, replay)
        sigma_sq = draw_sigma_sq(mu, before.ybar, before.s_sq, n, prior, constrained,
                                 None, replay)
        assert (mu, sigma_sq) == (state.mu, state.sigma_sq)
        sd = math.sqrt(sigma_sq)
        if constrained:
            props = [sample_trunc_normal(mu, sd, 0.0, 1.0, replay) for _ in range(n)]
        else:
            props = [mu + sd * replay.standard_normal() for _ in range(n)]
        uniforms = [replay.random() for _ in range(n)]
        assert replay.random() == rng.random()

        y = before.y.copy()
        ybar, s_sq = before.ybar, before.s_sq
        taken = 0
        for i in range(n):
            yb_new, s2_new = moments_swap_update(ybar, s_sq, float(y[i]), props[i], n)
            r = mh_accept_prob(ybar, yb_new, s_sq, s2_new, rel)
            if r >= 1.0 or uniforms[i] < r:
                y[i] = props[i]
                ybar, s_sq = yb_new, s2_new
                taken += 1
        assert taken == accepted
        np.testing.assert_array_equal(state.y, y)
        assert abs(state.ybar - ybar) <= 1e-12
        assert abs(state.s_sq - s_sq) <= 1e-12

    @pytest.mark.slow
    @pytest.mark.parametrize("n, eps, iters, seeds", [(50, 0.25, 20_000, (11, 12)),
                                                     (300, 1.9, 6_000, (13, 14))])
    def test_constrained_matches_reference_sweep(self, monkeypatch, n, eps, iters, seeds):
        rel = unit_release(n=n, eps1=eps, eps2=eps)
        d1 = run_augmented_chain(rel, True, SamplerConfig(iters=iters, seed=seeds[0]))
        monkeypatch.setattr(augmented, "augmented_sweep", augmented_sweep_reference)
        d2 = run_augmented_chain(rel, True, SamplerConfig(iters=iters, seed=seeds[1]))
        for a, b in ((d1.mu, d2.mu), (d1.sigma_sq, d2.sigma_sq)):
            se = math.hypot(mc_se(a), mc_se(b))
            assert abs(a.mean() - b.mean()) < 3 * se

    @pytest.mark.slow
    def test_per_iteration_cost_linear_in_n(self):
        def per_iter_time(n, sweeps):
            rel = unit_release(n=n)
            rng = np.random.default_rng(0)
            state = _init_augmented(rel, rng)
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                for _ in range(sweeps):
                    augmented_sweep(state, rel, PriorSpec.flat(), True, rng)
                best = min(best, (time.perf_counter() - t0) / sweeps)
            return best

        per_iter_time(100, 20)  # warm-up
        times = {n: per_iter_time(n, max(4, 2000 // n)) for n in (100, 1000, 10000)}
        ns = np.log(list(times.keys()))
        ts = np.log(list(times.values()))
        slope = np.polyfit(ns, ts, 1)[0]
        assert 0.8 <= slope <= 1.2
