import itertools
import math

import numpy as np
import pytest

import dpgibbs.regression as reg
from dpgibbs.errors import StuckChainError, ValidationError
from dpgibbs.feasible import RegTheta, regression_stats_feasible, regression_theta_feasible
from dpgibbs.gibbs import SamplerConfig
from dpgibbs.regression import (
    RegPriors,
    RegRelease,
    _conjugate_update,
    ingest_and_rescale,
    moment_model,
    moment_model_from_release,
    nearest_psd,
    release_regression,
    run_regression_chain,
)

def demo_data():
    from importlib import resources

    from dpgibbs.cli import _read_csv

    path = resources.files("dpgibbs").joinpath("data/demo_regression.csv")
    _, (x, y) = _read_csv(str(path), 2)
    return ingest_and_rescale(x, y)


def exact_release(data, eps_per_query=1e9):
    """Release with essentially no noise (huge per-query budget)."""
    return release_regression(data, eps_per_query, np.random.default_rng(0))


class TestIngest:
    def test_simple_rescale(self):
        data = ingest_and_rescale([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(data.x, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(data.y, [0.0, 0.5, 1.0])

    def test_already_unit_scale_unchanged(self):
        x = [0.0, 0.25, 1.0]
        y = [0.0, 0.9, 1.0]
        data = ingest_and_rescale(x, y)
        np.testing.assert_allclose(data.x, x)
        np.testing.assert_allclose(data.y, y)

    def test_constant_column_rejected(self):
        with pytest.raises(ValidationError):
            ingest_and_rescale([1.0, 1.0, 1.0], [0.0, 0.5, 1.0])

    def test_demo_dataset_spans_unit_interval(self):
        data = demo_data()
        assert data.n == 46
        assert data.x.min() == 0.0 and data.x.max() == 1.0
        assert data.y.min() == 0.0 and data.y.max() == 1.0


class TestReleaseRegression:
    def test_eleven_queries_and_determinism(self):
        data = demo_data()
        r1 = release_regression(data, 0.1, np.random.default_rng(5))
        r2 = release_regression(data, 0.1, np.random.default_rng(5))
        assert r1.z.size + r1.fourth_moments.size == 11
        np.testing.assert_array_equal(r1.z, r2.z)
        np.testing.assert_array_equal(r1.fourth_moments, r2.fourth_moments)

    def test_noise_is_unbiased_and_has_laplace_scale(self):
        data = demo_data()
        yty_true = float((data.y ** 2).sum())
        rng = np.random.default_rng(6)
        draws = np.array([release_regression(data, 0.1, rng).z[5]
                          for _ in range(4000)])
        scale = 10.0
        se = math.sqrt(2.0 * scale ** 2 / draws.size)
        assert abs(draws.mean() - yty_true) < 3 * se
        assert abs(draws.std() - math.sqrt(2.0) * scale) < 0.05 * math.sqrt(2.0) * scale


class TestNearestPsd:
    def test_identity_fixed_point(self):
        np.testing.assert_allclose(nearest_psd(np.eye(3)), np.eye(3))

    def test_reference_projection(self):
        out = nearest_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        np.testing.assert_allclose(out, np.full((2, 2), 1.5), atol=1e-12)

    def test_idempotent_on_psd(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        psd = a @ a.T
        np.testing.assert_allclose(nearest_psd(psd), psd, atol=1e-12)

    def test_minimum_eigenvalue_floor(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            m = rng.standard_normal((5, 5))
            out = nearest_psd(m)
            assert np.linalg.eigvalsh(out).min() >= -1e-10

    def test_projection_is_closest_on_clipping_family(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 4))
        m = 0.5 * (m + m.T)
        out = nearest_psd(m)
        base = np.linalg.norm(out - m)
        vals, vecs = np.linalg.eigh(m)
        for floor in (0.01, 0.1, 0.5, 1.0):
            cand = (vecs * np.clip(vals, floor, None)) @ vecs.T
            assert base <= np.linalg.norm(cand - m) + 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            nearest_psd(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestMomentModel:
    def test_mean_vector_structure(self):
        data = demo_data()
        rel = exact_release(data)
        model = moment_model_from_release(rel)
        theta = np.array([0.2, 0.5])
        sigma_sq = 0.01
        mu_t, sigma_t = moment_model(theta, sigma_sq, model, rel.n, constrained=False)
        assert mu_t.shape == (6,) and sigma_t.shape == (6, 6)
        eta = model.eta
        quad = theta @ eta @ theta
        assert mu_t[5] == pytest.approx(sigma_sq + quad)
        np.testing.assert_allclose(mu_t[3:5], eta @ theta)
        # with negligible noise the per-observation means are the data moments
        x = data.x
        np.testing.assert_allclose(
            mu_t[:3],
            [1.0, x.mean(), (x * x).mean()], rtol=1e-6)

    def test_constrained_variant_drops_count(self):
        rel = exact_release(demo_data())
        model = moment_model_from_release(rel)
        mu_t, sigma_t = moment_model(np.array([0.2, 0.5]), 0.01, model, rel.n,
                                     constrained=True)
        assert mu_t.shape == (5,) and sigma_t.shape == (5, 5)

    def test_zero_theta_limit_leaves_only_xi_block(self):
        rel = exact_release(demo_data())
        model = moment_model_from_release(rel)
        mu_t, sigma_t = moment_model(np.zeros(2), 1e-12, model, rel.n,
                                     constrained=False)
        # the x-statistic block is the centered fourth-moment matrix itself
        pairs = ((0, 0), (1, 0), (1, 1))
        for a, (i, j) in enumerate(pairs):
            for b, (k, l) in enumerate(pairs):
                assert sigma_t[a, b] == pytest.approx(model.xi4[i, j, k, l], abs=1e-9)
        # every block involving y vanishes with theta = 0 and sigma_sq -> 0
        assert np.abs(sigma_t[3:, :]).max() < 1e-10

    @pytest.mark.parametrize("constrained", [False, True])
    def test_index_tables_match_loop_reference(self, constrained, monkeypatch):
        # element for element the same arithmetic as the loops they replace
        rel = release_regression(demo_data(), 0.1, np.random.default_rng(3))
        model = moment_model_from_release(rel)
        m, eta, xi4 = rel.fourth_moments / rel.n, model.eta, model.xi4
        for i, j, k, l in itertools.product(range(2), repeat=4):
            assert xi4[i, j, k, l] == m[i + j + k + l] - eta[i, j] * eta[k, l]
        theta = np.array([0.3, 0.4])
        monkeypatch.setattr(reg, "nearest_psd", lambda a: a)
        mu_t, sigma = moment_model(theta, 0.02, model, rel.n, constrained)
        xi_th_l = np.einsum("ijkl,l->ijk", xi4, theta)
        xi_th_kl = np.einsum("ijkl,k,l->ij", xi4, theta, theta)
        pairs = ((1, 0), (1, 1)) if constrained else ((0, 0), (1, 0), (1, 1))
        na = len(pairs)
        for a, (i, j) in enumerate(pairs):
            assert mu_t[a] == eta[i, j]
            for b, (k, l) in enumerate(pairs):
                assert sigma[a, b] == xi4[i, j, k, l]
            assert (sigma[a, na:na + 2] == xi_th_l[i, j]).all()
            assert (sigma[na:na + 2, a] == xi_th_l[i, j]).all()
            assert sigma[a, -1] == sigma[-1, a] == xi_th_kl[i, j]

    def test_covariance_matches_empirical_moments(self):
        # per-observation covariance of (x, x^2, y, xy, y^2) under the model,
        # checked against a brute-force Monte Carlo at fixed theta, sigma_sq
        rng = np.random.default_rng(9)
        n_mc = 400_000
        x = rng.random(n_mc)  # uniform x; moments computed exactly below
        theta = np.array([0.3, 0.4])
        sigma_sq = 0.02
        y = theta[0] + theta[1] * x + rng.normal(0.0, math.sqrt(sigma_sq), n_mc)
        t_vec = np.stack([np.ones(n_mc), x, x * x, y, x * y, y * y], axis=1)
        emp_mean = t_vec.mean(axis=0)
        emp_cov = np.cov(t_vec.T)
        moments = np.array([1.0] + [1.0 / (p + 1) for p in range(1, 5)])
        model = reg.RegMomentModel(
            eta=np.array([[moments[0], moments[1]], [moments[1], moments[2]]]),
            xi4=np.array([[[[moments[i + j + k + l]
                             - moments[i + j] * moments[k + l]
                             for l in range(2)] for k in range(2)]
                           for j in range(2)] for i in range(2)]),
        )
        mu_t, sigma_t = moment_model(theta, sigma_sq, model, 46, constrained=False)
        np.testing.assert_allclose(mu_t, emp_mean, atol=5e-3)
        np.testing.assert_allclose(sigma_t, emp_cov, atol=8e-3)


class TestConjugateUpdate:
    def test_matches_hand_formula(self):
        priors = RegPriors.default()
        xtx = np.array([[46.0, 20.0], [20.0, 12.0]])
        xty = np.array([22.0, 11.0])
        yty = 14.0
        mu_n, lambda_n, chol_n, a_n, b_n = _conjugate_update(xtx, xty, yty, 46, priors)
        lam_expected = xtx + priors.lambda0
        mu_expected = np.linalg.solve(lam_expected, priors.lambda0 @ priors.mu0 + xty)
        np.testing.assert_allclose(lambda_n, lam_expected)
        np.testing.assert_allclose(chol_n, np.linalg.cholesky(np.linalg.inv(lam_expected)),
                                   rtol=1e-9)
        np.testing.assert_allclose(mu_n, mu_expected, rtol=1e-9)
        assert a_n == pytest.approx(priors.a0 + 23.0)
        assert b_n == pytest.approx(
            priors.b0 + 0.5 * (yty + priors.mu0 @ priors.lambda0 @ priors.mu0
                               - mu_expected @ lam_expected @ mu_expected))

    def test_zero_noise_chain_recovers_conjugate_posterior(self):
        data = demo_data()
        rel = exact_release(data, eps_per_query=1e6)
        draws = run_regression_chain(rel, RegPriors.default(), False,
                                     SamplerConfig(iters=4000, seed=3, burn_in=200))
        x, y = data.x, data.y
        xtx = np.array([[data.n, x.sum()], [x.sum(), (x * x).sum()]])
        xty = np.array([y.sum(), (x * y).sum()])
        mu_n, _, _, _, _ = _conjugate_update(xtx, xty, float((y * y).sum()),
                                          data.n, RegPriors.default())
        from dpgibbs.summary import mc_se

        assert abs(draws.theta0.mean() - mu_n[0]) < 3 * mc_se(draws.theta0)
        assert abs(draws.theta1.mean() - mu_n[1]) < 3 * mc_se(draws.theta1)


class TestRegressionChain:
    def test_unconstrained_violation_bands(self):
        # release pinned to a draw showing the documented infeasibility rates
        data = demo_data()
        rel = release_regression(data, 0.1, np.random.default_rng(40))
        draws = run_regression_chain(rel, RegPriors.default(), False,
                                     SamplerConfig(iters=10_000, seed=47, burn_in=0))
        n = data.n
        y_violation = np.mean([not (0.0 <= s[5] <= s[3] <= n) for s in draws.stats])
        assert 0.10 <= y_violation <= 0.30
        theta_bad = np.mean([
            not regression_theta_feasible(RegTheta(a, b))
            for a, b in zip(draws.theta0, draws.theta1)
        ])
        assert 0.0 <= theta_bad <= 0.10

    def test_constrained_chain_totality(self):
        data = demo_data()
        rel = release_regression(data, 0.1, np.random.default_rng(51))
        draws = run_regression_chain(rel, RegPriors.default(), True,
                                     SamplerConfig(iters=3000, seed=7, burn_in=0))
        n = data.n
        assert all(regression_stats_feasible(*s, n) for s in draws.stats)
        assert all(regression_theta_feasible(RegTheta(a, b))
                   for a, b in zip(draws.theta0, draws.theta1))
        assert (draws.sigma_sq <= 0.25).all()
        for s in draws.stats:
            b = np.array([[n, s[0], s[2]], [s[0], s[1], s[3]], [s[2], s[3], s[4]]])
            assert np.linalg.eigvalsh(b).min() >= 0.0

    def test_determinism(self):
        data = demo_data()
        rel = release_regression(data, 0.1, np.random.default_rng(51))
        cfg = SamplerConfig(iters=500, seed=7, burn_in=0)
        a = run_regression_chain(rel, RegPriors.default(), True, cfg)
        b = run_regression_chain(rel, RegPriors.default(), True, cfg)
        np.testing.assert_array_equal(a.theta0, b.theta0)
        np.testing.assert_array_equal(a.stats, b.stats)

    @pytest.mark.parametrize("seed", range(5))
    def test_lambda_projection_fallback(self, seed):
        # a near-zero prior precision lets the imputed X'X make lambda_n
        # non-PD; the chain must project it, count the event and go on
        priors = RegPriors(mu0=np.array([1.0, 0.0]), lambda0=1e-30 * np.eye(2),
                           a0=20.0, b0=0.5)
        rel = release_regression(demo_data(), 0.1, np.random.default_rng(seed))
        draws = run_regression_chain(rel, priors, False,
                                     SamplerConfig(iters=500, seed=seed, burn_in=0))
        assert draws.warnings["lambda_psd_projected"] > 0
        for col in (draws.theta0, draws.theta1, draws.sigma_sq):
            assert np.isfinite(col).all()

    def test_stuck_chain_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(reg, "_REJECTION_CAP", 20_000)
        data = demo_data()
        rel = release_regression(data, 0.1, np.random.default_rng(2))
        with pytest.raises(StuckChainError) as err:
            run_regression_chain(rel, RegPriors.default(), True,
                                 SamplerConfig(iters=2000, seed=11, burn_in=0))
        assert "statistic imputation stuck" in str(err.value)
        diag = err.value.diagnostics
        assert "iteration" in diag
        assert diag["attempts"] == 20_000
        assert set(diag["fails"]) == {"stats", "psd"}
        assert sum(diag["fails"].values()) == diag["attempts"]

    def test_stuck_coefficient_update_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(reg, "_REJECTION_CAP", 50)
        monkeypatch.setattr(reg, "regression_theta_feasible", lambda theta: False)
        rel = release_regression(demo_data(), 10.0, np.random.default_rng(0))
        with pytest.raises(StuckChainError) as err:
            run_regression_chain(rel, RegPriors.default(), True,
                                 SamplerConfig(iters=10, seed=0, burn_in=0))
        assert "theta feasibility" in str(err.value)
        diag = err.value.diagnostics
        assert diag["iteration"] == 0
        assert len(diag["mu_n"]) == 2 and 0.0 < diag["sigma_sq"] <= 0.25
        assert diag["attempts"] == 50 and diag["fails"] == {"theta": 50}

    def test_totality_chain_feasibility_calls_are_pinned(self, monkeypatch):
        # the statistics' rejection loop draws the same candidates as the eigh / LU
        # implementation it replaced: rounding moved, no accept or reject flipped
        calls = []
        monkeypatch.setattr(reg, "regression_stats_feasible",
                            lambda *s: calls.append(s) or regression_stats_feasible(*s))
        rel = release_regression(demo_data(), 0.1, np.random.default_rng(51))
        run_regression_chain(rel, RegPriors.default(), True,
                             SamplerConfig(iters=3000, seed=7, burn_in=0))
        assert len(calls) == 11_924

    # rows 0, 99 and 199 of (theta0, theta1, sigma_sq, statistics) as the eigh / LU
    # implementation drew them from release_regression(demo, eps, rng 0), chain seed 3
    PINNED_DRAWS = {
        (10.0, True): [
            [0.14747551673614168, 0.7527313029115983, 0.019595955196359024,
             21.70334095650556, 13.729250833738135, 24.09791523965606,
             13.844722132705751, 14.739505923889547],
            [0.3078010815113212, 0.47593994740268725, 0.019405229527895276,
             21.339344594872465, 14.073634660767777, 23.943137612772475,
             13.564731009903396, 14.802338408757981],
            [0.21531715465611184, 0.6473828888008061, 0.0352250094653653,
             21.354728191487833, 14.19203482943281, 23.988617249289398,
             13.595796753023345, 15.08073232867571]],
        (1.0, False): [
            [0.44770940146253557, 0.20755637444317637, 0.012871249805070518,
             46.51711185756915, 19.63935235507857, 15.850932998178948,
             25.386370380531538, 12.537057596850447, 14.247086692346045],
            [0.6377597117001513, -0.1171987364163167, 0.03078586751268962,
             45.65507499379655, 22.799913007540468, 16.182468143520087,
             26.917699718445384, 12.653884278733466, 16.991687516092863],
            [0.604439040623078, -0.054713643591827496, 0.018521475742902777,
             46.26879757351991, 20.446569134165625, 13.73454405494688,
             27.487335811219754, 12.003470504762968, 17.233723561841536]],
    }

    @pytest.mark.parametrize("eps, constrained", sorted(PINNED_DRAWS),
                             ids=["unconstrained-eps1", "constrained-eps10"])
    def test_well_conditioned_chain_draws_are_pinned(self, eps, constrained):
        # the same normals go through the same transforms, so only rounding may move
        rel = release_regression(demo_data(), eps, np.random.default_rng(0))
        d = run_regression_chain(rel, RegPriors.default(), constrained,
                                 SamplerConfig(iters=200, seed=3, burn_in=0))
        rows = np.column_stack([d.theta0, d.theta1, d.sigma_sq, d.stats])
        np.testing.assert_allclose(rows[[0, 99, 199]], self.PINNED_DRAWS[eps, constrained],
                                   rtol=1e-10, atol=1e-10)

    def test_release_shape_validation(self):
        with pytest.raises(ValueError):
            RegRelease(z=np.zeros(5), fourth_moments=np.zeros(5),
                       eps_per_query=0.1, n=10)
