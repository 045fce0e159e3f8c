import copy
import math
import time
from fractions import Fraction

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


_N_BANDS = {3: (2, 12), 50: (13, 224), 1000: (225, 2000)}
_EPS = st.floats(1e-3, 1e3) | st.sampled_from([1e307, 1.797e308])


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
    @pytest.mark.parametrize("n_scale", sorted(_N_BANDS))
    @given(data=st.data(), eps1=_EPS, eps2=_EPS, ybar_star=st.floats(-1.0, 2.0),
           s_sq_star=st.floats(-0.5, 1.0), conjugate=st.booleans(),
           spread=st.sampled_from([None, 1e-3]), warm=st.integers(0, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_scan_replays_reference_helpers(self, n_scale, constrained, data, eps1, eps2,
                                            ybar_star, s_sq_star, conjugate, spread,
                                            warm, seed):
        """One sweep's proposals and uniforms, fed one latent at a time
        through moments_swap_update and mh_accept_prob, accept the same
        latents and end at the same moments.

        n is drawn from the band of n_scale, so every run reaches both
        n = 2 and n in the thousands; with spread set, the sweep starts from
        latents within spread of each other, where s_sq is about 1e-7.
        """
        n = data.draw(st.integers(*_N_BANDS[n_scale]), label="n")
        rel = unit_release(ybar_star=ybar_star, s_sq_star=s_sq_star, n=n, eps1=eps1,
                           eps2=eps2)
        # The flat prior's sigma_sq conditional needs n >= 3.
        prior = (PriorSpec.conjugate(0.3, 1.0, 1.0, 0.01) if conjugate or n == 2
                 else PriorSpec.flat())
        rng = np.random.default_rng(seed)
        state = _init_augmented(rel, rng)
        for _ in range(warm):
            augmented_sweep(state, rel, prior, constrained, rng)
        if spread is not None:
            state.y = min(max(state.ybar, 0.1), 0.9) + spread * rng.random(n)
            state.ybar, state.s_sq = float(state.y.mean()), float(state.y.var(ddof=1))
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
        taken = []
        for i in range(n):
            yb_new, s2_new = moments_swap_update(ybar, s_sq, float(y[i]), props[i], n)
            r = mh_accept_prob(ybar, yb_new, s_sq, s2_new, rel)
            if r >= 1.0 or uniforms[i] < r:
                y[i] = props[i]
                ybar, s_sq = yb_new, s2_new
                taken.append(i)
        assert accepted == len(taken)
        np.testing.assert_array_equal(np.flatnonzero(state.y != before.y), taken)
        np.testing.assert_array_equal(state.y, y)
        assert abs(state.ybar - ybar) <= 1e-12
        assert abs(state.s_sq - s_sq) <= 1e-12
        # One np.float64 in the cached moments slows every later sweep.
        assert type(state.ybar) is float and type(state.s_sq) is float

    @given(n=st.integers(2, 300), data=st.data(), eps1=_EPS, eps2=_EPS,
           ybar_star=st.floats(-1.0, 2.0), s_sq_star=st.floats(-0.5, 1.0),
           spread=st.sampled_from([1.0, 1e-3]), p_accept=st.sampled_from([0.0, 0.5, 1.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_swap_bound_holds_for_every_earlier_pattern(self, n, data, eps1, eps2, ybar_star,
                                                        s_sq_star, spread, p_accept, seed):
        """Swap i's log acceptance ratio, computed in exact rational arithmetic
        after a random accept/reject pattern of swaps j < i, is never below
        -bound_i."""
        rng = np.random.default_rng(seed)
        y, props = spread * rng.random(n), spread * rng.random(n)
        ybar = float(y.mean())
        with np.errstate(over="ignore", invalid="ignore"):
            bound = augmented._swap_bounds((props - y) / n, props + y - 2.0 * ybar, n,
                                           eps1, eps2)
        i = data.draw(st.integers(0, n - 1), label="i")
        before = np.where(np.arange(n) < i, np.where(rng.random(n) < p_accept, props, y), y)
        after = before.copy()
        after[i] = props[i]

        def distances(values):
            vals = [Fraction(v) for v in values.tolist()]
            mean = sum(vals) / n
            var = sum((v - mean) ** 2 for v in vals) / (n - 1)
            return abs(Fraction(ybar_star) - mean), abs(Fraction(s_sq_star) - var)

        (d1, d2), (d1_new, d2_new) = distances(before), distances(after)
        log_ratio = (-Fraction(eps1) * n * (d1_new - d1) - Fraction(eps2) * n * (d2_new - d2))
        if math.isfinite(bound[i]):
            assert log_ratio >= -Fraction(bound[i]) * (1 + Fraction(1, 10 ** 9))

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
        # The sweep's fixed cost of about 50 us would dominate at n = 100.
        times = {n: per_iter_time(n, max(4, 20_000 // n)) for n in (1000, 10_000, 100_000)}
        ns = np.log(list(times.keys()))
        ts = np.log(list(times.values()))
        slope = np.polyfit(ns, ts, 1)[0]
        assert 0.8 <= slope <= 1.2
