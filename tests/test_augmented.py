import copy
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import dpgibbs.augmented as augmented
import dpgibbs.harness as harness
from dpgibbs.augmented import _init_augmented, augmented_sweep, group_moves, run_augmented_chain
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
from oracles import (
    anchored_accept_prob,
    anchored_moments,
    augmented_sweep_reference,
    geweke_z,
    latent_joint_draws,
    latent_successive_conditional_draws,
    mh_accept_prob,
    moments_swap_update,
)


_N_BANDS = {3: (2, 12), 50: (13, 224), 1000: (225, 2000)}
_EPS = st.floats(1e-3, 1e3) | st.sampled_from([1e307, 1.797e308])

# sigma_sq ~ Inv-Gamma(nu0/2, .) has E sigma^8 < inf only for nu0 > 8, and the z of the
# second moment of s_sq needs it: at nu0 = 4 the z of the second moments are not normal,
# and in unconstrained mode they read -2 to -5 on the latent scan alone.
GEWEKE_PRIOR = PriorSpec.conjugate(mu0=0.2, kappa0=1.0, nu0=10.0, sigma0_sq=0.05)
GEWEKE_CASES = [(5, False, 41), (5, True, 42), (10, False, 43), (10, True, 44)]
GEWEKE_STEPS = 150_000
# Four variants, each comparing two moments of four quantities: a two-sided
# family-wise level of 1% over the 32 comparisons.
GEWEKE_Z = float(ndtri(1.0 - 0.01 / (2 * 8 * len(GEWEKE_CASES))))


def assert_cache_exact(state):
    assert abs(state.ybar - state.y.mean()) < 1e-10
    assert abs(state.s_sq - state.y.var(ddof=1)) < 1e-10


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

    @given(n=st.integers(2, 300), eps1=st.floats(1e-3, 1e3), eps2=st.floats(1e-3, 1e3),
           ybar_star=st.floats(-1.0, 2.0), s_sq_star=st.floats(-0.5, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_anchored_form_matches(self, n, eps1, eps2, ybar_star, s_sq_star, seed):
        """The anchored form the scan uses gives mh_accept_prob of the rebuilt moments,
        up to rounding, after some earlier swaps have moved the anchored sums."""
        rel = unit_release(ybar_star=ybar_star, s_sq_star=s_sq_star, n=n, eps1=eps1,
                           eps2=eps2)
        rng = np.random.default_rng(seed)
        y = rng.random(n)
        yb, t, s = float(y.mean()), 0.0, float(y.var(ddof=1))
        for i in rng.integers(0, n, 6).tolist():
            step, v = moments_swap_update(yb, float(y[i]), new := float(rng.random()), n)
            t, s, y[i] = t + step, s + v, new
        step, v = moments_swap_update(yb, float(y[0]), 0.8, n)
        got = anchored_accept_prob(yb, t, s, step, v, rel)
        ybar, s_sq = anchored_moments(yb, t, s, n)
        ybar_new, s_sq_new = anchored_moments(yb, t + step, s + v, n)
        want = mh_accept_prob(ybar, ybar_new, s_sq, s_sq_new, rel)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-300)

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
        step, v = moments_swap_update(0.5, 1.0, 0.0, 2)
        assert anchored_moments(0.5, step, 0.5 + v, 2) == (0.0, 0.0)

    def test_identity_swap(self):
        assert moments_swap_update(0.37, 0.5, 0.5, 13) == (0.0, 0.0)
        assert anchored_moments(0.37, 0.0, 0.021, 13) == (0.37, 0.021)

    @given(st.integers(2, 20), st.integers(0, 19), st.floats(0.0, 1.0),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_recomputation(self, n, idx, new_val, seed):
        rng = np.random.default_rng(seed)
        y = rng.random(n)
        yb, s2 = float(y.mean()), float(y.var(ddof=1))
        i = idx % n
        step, v = moments_swap_update(yb, float(y[i]), new_val, n)
        got = anchored_moments(yb, step, s2 + v, n)
        y[i] = new_val
        assert got[0] == pytest.approx(float(y.mean()), abs=1e-12)
        assert got[1] == pytest.approx(float(y.var(ddof=1)), abs=1e-12)

    def test_long_walk_drift_stays_small(self):
        rng = np.random.default_rng(1)
        y = rng.random(30)
        yb, t, s = float(y.mean()), 0.0, float(y.var(ddof=1))
        for _ in range(5000):
            i = int(rng.integers(30))
            new = float(rng.random())
            step, v = moments_swap_update(yb, float(y[i]), new, 30)
            t, s = t + step, s + v
            y[i] = new
        ybar, s_sq = anchored_moments(yb, t, s, 30)
        assert abs(ybar - y.mean()) < 1e-8
        assert abs(s_sq - y.var(ddof=1)) < 1e-8

    @given(st.integers(2, 2000), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_tight_cluster_keeps_s_sq(self, n, seed):
        """Latents within 1e-6 of each other have s_sq about 1e-6^2/12, 8e-14; after 50
        swaps within the cluster, s_sq is within 1e-20 of the exact rational value.  The
        form new^2 - old^2 loses about 1e-17 per swap to cancellation."""
        rng = np.random.default_rng(seed)
        y = 0.5 + 1e-6 * rng.random(n)
        yb, t, s = float(y.mean()), 0.0, float(y.var(ddof=1))
        for i, new in zip(rng.integers(0, n, 50).tolist(), (0.5 + 1e-6 * rng.random(50)).tolist()):
            step, v = moments_swap_update(yb, float(y[i]), new, n)
            t, s = t + step, s + v
            y[i] = new
        vals = [Fraction(v) for v in y.tolist()]
        mean = sum(vals) / n
        exact = sum((v - mean) ** 2 for v in vals) / (n - 1)
        assert abs(Fraction(anchored_moments(yb, t, s, n)[1]) - exact) <= Fraction(1e-20)


class TestAugmentedChain:
    def test_constrained_latents_stay_in_bounds(self):
        """Through the latent scan and the group moves, under both priors, the latents
        stay in [0, 1] and the pair feasible exactly."""
        rel = unit_release(n=25)
        rng = np.random.default_rng(0)
        for prior in (PriorSpec.flat(), PriorSpec.conjugate(0.3, 1.0, 1.0, 0.01)):
            state = _init_augmented(rel, rng)
            for _ in range(200):
                for move in (augmented_sweep, group_moves):
                    move(state, rel, prior, True, rng)
                    assert state.y.min() >= 0.0 and state.y.max() <= 1.0
                    assert pair_feasible(state.mu, state.sigma_sq)
                    assert_cache_exact(state)

    @pytest.mark.parametrize("eps2", [0.25, 1.797e308])
    def test_group_moves_end_at_an_infinite_eps1_n(self, eps2):
        """At eps1 n = inf the ybar Laplace term is inf * 0 wherever a move leaves ybar where
        it was, and the scan pins ybar so closely that every other scale is -inf or NaN: the
        slice steps must still end at the state, in both modes and under both priors."""
        rel = unit_release(n=25, eps1=1.797e308, eps2=eps2)
        rng = np.random.default_rng(2)
        for constrained in (False, True):
            for prior in (PriorSpec.flat(), PriorSpec.conjugate(0.3, 1.0, 1.0, 0.01)):
                state = _init_augmented(rel, rng)
                for _ in range(100):
                    augmented_sweep(state, rel, prior, constrained, rng)
                    group_moves(state, rel, prior, constrained, rng)
                    assert_cache_exact(state)

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
        """After the latent scan and after the group moves, in both modes, the cached
        moments are those of the latents."""
        rng = np.random.default_rng(10)
        for constrained in (True, False):
            rel = unit_release(n=30)
            state = _init_augmented(rel, rng)
            accepted = 0
            for _ in range(300):
                accepted += augmented_sweep(state, rel, PriorSpec.flat(), constrained, rng)
                assert_cache_exact(state)
                group_moves(state, rel, PriorSpec.flat(), constrained, rng)
                assert_cache_exact(state)
            assert accepted > 0

    def test_drift_guard_fails_the_chain_and_the_replication(self, monkeypatch):
        """A negative tolerance makes the first sweep's group moves, which check the
        cached moments against the latents', report drift; the harness counts that
        replication as failed instead of crashing."""
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
           spread=st.sampled_from([None, 1e-3, 1e-6]), warm=st.integers(0, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_scan_replays_reference_helpers(self, n_scale, constrained, data, eps1, eps2,
                                            ybar_star, s_sq_star, conjugate, spread,
                                            warm, seed):
        """One sweep's proposals and uniforms, fed one latent at a time
        through moments_swap_update and anchored_accept_prob, accept the same
        latents and end at the same moments.

        n is drawn from the band of n_scale, so every run reaches both
        n = 2 and n in the thousands; with spread set, the sweep starts from
        latents within spread of each other, where s_sq is about 1e-7 or 1e-13.
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
        t, s = 0.0, before.s_sq
        taken = []
        for i in range(n):
            step, v = moments_swap_update(before.ybar, float(y[i]), props[i], n)
            r = anchored_accept_prob(before.ybar, t, s, step, v, rel)
            if r >= 1.0 or uniforms[i] < r:
                y[i] = props[i]
                t, s = t + step, s + v
                taken.append(i)
        ybar, s_sq = anchored_moments(before.ybar, t, s, n)
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


class TestJointDistribution:
    """A sweep of the latent-value chain leaves its joint invariant.

    Geweke's successive-conditional test under a proper conjugate prior, in
    both modes, on [0, 1] at eps 1/1: alternating release regeneration with
    the latent scan and the group moves must reproduce the first and second
    moments of mu, log sigma_sq, ybar and s_sq under independent rejection
    draws from the joint, which in constrained mode is tilted by Z^n.
    """

    @pytest.mark.slow
    @pytest.mark.parametrize("n, constrained, seed", GEWEKE_CASES)
    def test_successive_conditional_matches_the_joint(self, n, constrained, seed):
        rng = np.random.default_rng(seed)
        ref = latent_joint_draws(GEWEKE_STEPS, n, GEWEKE_PRIOR, constrained, rng)
        start = {k: v[0] for k, v in ref.items()}

        def step(state, rel):
            augmented_sweep(state, rel, GEWEKE_PRIOR, constrained, rng)
            group_moves(state, rel, GEWEKE_PRIOR, constrained, rng)

        chain = latent_successive_conditional_draws(step, start, GEWEKE_STEPS, n, 1.0, 1.0, rng)
        for key, z in geweke_z(chain, ref).items():
            assert abs(z) < GEWEKE_Z, (key, z)
