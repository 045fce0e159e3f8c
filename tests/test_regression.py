import math

import numpy as np
import pytest

import dpgibbs.regression as reg
from dpgibbs.errors import NumericalError, StuckChainError, ValidationError
from dpgibbs.feasible import RegTheta, regression_stats_feasible, regression_theta_feasible
from dpgibbs.gibbs import SamplerConfig
from dpgibbs.regression import (
    RegPriors,
    RegRelease,
    _coefficient_conditional,
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


@pytest.fixture(scope="module")
def chain_matrices():
    """The moment model's covariances, the imputed [X Y]'[X Y] and every matrix the PD
    test saw (accepted and rejected) in 300-iteration demo chains: unconstrained at
    eps 0.1 and 1, constrained at eps 10."""
    covariances, zt_zs, pd_candidates = [], [], []

    def recording(*args):
        mu_t, sigma = moment_model(*args)
        covariances.append(sigma)
        return mu_t, sigma

    def recording_pd(m, is_pd=reg._is_pd):
        pd_candidates.append(m)
        return is_pd(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reg, "moment_model", recording)
        mp.setattr(reg, "_is_pd", recording_pd)
        for eps, constrained in ((0.1, False), (1.0, False), (10.0, True)):
            rel = release_regression(demo_data(), eps, np.random.default_rng(0))
            d = run_regression_chain(rel, RegPriors.default(), constrained,
                                     SamplerConfig(iters=300, seed=3, burn_in=0))
            zt_zs += [reg._zt_z(s, rel.n) for s in d.stats]
    return covariances, zt_zs, pd_candidates


def _assert_close_to_scale(actual, expected):
    """Agreement to 1e-12 of expected's largest entry: rounding, not bits, may differ."""
    np.testing.assert_allclose(actual, expected, rtol=0.0,
                               atol=1e-12 * np.abs(expected).max())


class TestEigendecompositionAgreement:
    """_clip_eigenvalues (LAPACK dsyevd) against the np.linalg.eigh forms it replaced,
    on chain matrices, and the dpotrf test of positive definiteness."""

    def test_spd_inverse_matches_eigh_form(self, chain_matrices):
        for m in chain_matrices[0]:
            vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
            vals = np.clip(vals, 1e-10 * max(float(vals[-1]), 1e-30), None)
            out = (vecs / vals) @ vecs.T
            _assert_close_to_scale(reg._spd_inverse(m), 0.5 * (out + out.T))

    def test_nearest_psd_matches_eigh_form(self, chain_matrices):
        covariances, zt_zs, _ = chain_matrices
        for m in covariances + zt_zs:
            vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
            out = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
            _assert_close_to_scale(nearest_psd(m), 0.5 * (out + out.T))

    def test_pd_predicate_matches_eigvalsh(self, chain_matrices):
        # the dpotrf test that gates the unconstrained projection and the constrained
        # rejection loop gives eigvalsh's verdict on every candidate the chains drew
        verdicts = [(reg._is_pd(b), np.linalg.eigvalsh(b).min() > 0.0)
                    for b in chain_matrices[2]]
        assert all(pd == positive for pd, positive in verdicts)
        assert {pd for pd, _ in verdicts} == {True, False}

    def test_projection_gate(self, chain_matrices):
        zt_zs = chain_matrices[1]
        pd = [b for b in zt_zs if reg._is_pd(b)]
        not_pd = [b for b in zt_zs if not reg._is_pd(b)]
        assert pd and not_pd
        for b in pd:  # skipping the projection moves b by rounding only
            _assert_close_to_scale(b, nearest_psd(b))
        for b in not_pd:
            assert np.linalg.eigvalsh(nearest_psd(b)).min() >= -1e-12 * np.abs(b).max()

    def test_unconverged_decomposition_is_numerical_error(self, monkeypatch):
        monkeypatch.setattr(reg, "dsyevd", lambda a, compute_v=1, lower=0: (a[0], a, 1))
        with pytest.raises(NumericalError) as err:
            reg._spd_inverse(np.diag([1.0, 2.0]))
        assert err.value.diagnostics == {"trace": 3.0}


def _eta_xi4(rel):
    """E[vv'] and Cov(vec vv') of v = (1, x) from the release's noisy moments m_k."""
    m = rel.fourth_moments / rel.n
    eta = np.array([[m[0], m[1]], [m[1], m[2]]])
    xi4 = np.array([[[[m[i + j + k + l] - eta[i, j] * eta[k, l]
                       for l in range(2)] for k in range(2)]
                     for j in range(2)] for i in range(2)])
    return eta, xi4


def _enumerated_moments(points, theta, sigma_sq):
    """Exact mean and covariance of (1, x, x^2, y, xy, y^2), y = theta0 + theta1 x + e,
    with x uniform on points and e on the 3-point Gauss-Hermite law: 0 with weight 2/3,
    +-sqrt(3 sigma_sq) with weight 1/6 each, which has the normal moments up to order 5."""
    root = math.sqrt(3.0 * sigma_sq)
    rows, weights = [], []
    for x in points:
        for e, w in ((0.0, 2.0 / 3.0), (root, 1.0 / 6.0), (-root, 1.0 / 6.0)):
            y = theta[0] + theta[1] * x + e
            rows.append([1.0, x, x * x, y, x * y, y * y])
            weights.append(w / len(points))
    rows, weights = np.array(rows), np.array(weights)
    mean = weights @ rows
    centered = rows - mean
    return mean, (centered * weights[:, None]).T @ centered


class TestMomentModel:
    def test_mean_vector_structure(self):
        data = demo_data()
        rel = exact_release(data)
        model = moment_model_from_release(rel)
        theta = np.array([0.2, 0.5])
        sigma_sq = 0.01
        mu_t, sigma_t = moment_model(theta, sigma_sq, model, constrained=False)
        assert mu_t.shape == (6,) and sigma_t.shape == (6, 6)
        eta, _ = _eta_xi4(rel)
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
        mu_t, sigma_t = moment_model(np.array([0.2, 0.5]), 0.01, model, constrained=True)
        assert mu_t.shape == (5,) and sigma_t.shape == (5, 5)

    def test_zero_theta_limit_leaves_only_xi_block(self):
        rel = exact_release(demo_data())
        model = moment_model_from_release(rel)
        mu_t, sigma_t = moment_model(np.zeros(2), 1e-12, model, constrained=False)
        _, xi4 = _eta_xi4(rel)
        # the x-statistic block is the centered fourth-moment matrix itself
        pairs = ((0, 0), (1, 0), (1, 1))
        for a, (i, j) in enumerate(pairs):
            for b, (k, l) in enumerate(pairs):
                assert sigma_t[a, b] == pytest.approx(xi4[i, j, k, l], abs=1e-9)
        # every block involving y vanishes with theta = 0 and sigma_sq -> 0
        assert np.abs(sigma_t[3:, :]).max() < 1e-10

    def test_noisy_count_scales_only_products_with_one_or_x(self):
        # m0 = noisy count / n = 1/2 enters E[1 e^2] = m0 sigma_sq, so Var(y), but not
        # E[e^2] = sigma_sq or E[e^4] = 3 sigma_sq^2, so not E[y^2]'s sigma_sq term
        rel = RegRelease(z=np.zeros(6), fourth_moments=np.array([5.0, 4.0, 3.0, 2.5, 2.0]),
                         eps_per_query=1.0, n=10)
        eta, xi4 = _eta_xi4(rel)
        theta, sigma_sq = np.array([0.3, -0.7]), 0.05
        mu_t, sigma_t = moment_model(theta, sigma_sq, moment_model_from_release(rel),
                                     constrained=False)
        quad = theta @ eta @ theta
        assert mu_t[5] == pytest.approx(sigma_sq + quad, rel=1e-13)
        assert sigma_t[3, 3] == pytest.approx(sigma_sq * eta[0, 0] + theta @ xi4[0, :, 0] @ theta,
                                              rel=1e-13)
        xi_all = np.einsum("ijkl,i,j,k,l->", xi4, theta, theta, theta, theta)
        assert sigma_t[5, 5] == pytest.approx(
            2.0 * sigma_sq * sigma_sq + 4.0 * sigma_sq * quad + xi_all, rel=1e-13)

    @pytest.mark.parametrize("constrained", [False, True])
    def test_matches_exact_enumeration(self, constrained):
        # a release of 5 points read exactly (m0 = 1); the oracle enumerates the
        # 15 atoms of (x, e) and knows nothing of either formulation of the model
        rng = np.random.default_rng(12)
        points = rng.random(5)
        rel = RegRelease(z=np.zeros(6), fourth_moments=np.array([np.sum(points ** k)
                                                                 for k in range(5)]),
                         eps_per_query=1.0, n=5)
        model = moment_model_from_release(rel)
        keep = slice(1, None) if constrained else slice(None)
        for _ in range(200):
            theta, sigma_sq = rng.uniform(-1.0, 1.0, 2), rng.uniform(1e-4, 0.25)
            mu_t, sigma_t = moment_model(theta, sigma_sq, model, constrained)
            mean, cov = _enumerated_moments(points, theta, sigma_sq)
            np.testing.assert_allclose(mu_t, mean[keep], rtol=0, atol=1e-13)
            np.testing.assert_allclose(sigma_t, cov[keep, keep], rtol=0, atol=1e-13)

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
        model = moment_model_from_release(RegRelease(
            z=np.zeros(6), fourth_moments=46 * moments, eps_per_query=1.0, n=46))
        mu_t, sigma_t = moment_model(theta, sigma_sq, model, constrained=False)
        np.testing.assert_allclose(mu_t, emp_mean, atol=5e-3)
        np.testing.assert_allclose(sigma_t, emp_cov, atol=8e-3)


def _warnings():
    return {"lambda_psd_projected": 0, "b_n_clamped": 0}


class TestConjugateUpdate:
    """_coefficient_conditional is the normal-inverse-gamma update from a statistic vector
    (sum x, sum x^2, sum y, sum xy, sum y^2), here with the count n known."""

    def test_matches_hand_formula(self):
        priors = RegPriors.default()
        stats = np.array([20.0, 12.0, 22.0, 11.0, 14.0])
        xtx = np.array([[46.0, 20.0], [20.0, 12.0]])
        xty = np.array([22.0, 11.0])
        yty = 14.0
        warnings = _warnings()
        mu_n, chol_n, a_n, b_n = _coefficient_conditional(stats, 46, priors, True, warnings)
        lam_expected = xtx + priors.lambda0
        mu_expected = np.linalg.solve(lam_expected, priors.lambda0 @ priors.mu0 + xty)
        np.testing.assert_allclose(chol_n, np.linalg.cholesky(np.linalg.inv(lam_expected)),
                                   rtol=1e-9)
        np.testing.assert_allclose(mu_n, mu_expected, rtol=1e-9)
        assert a_n == pytest.approx(priors.a0 + 23.0)
        assert b_n == pytest.approx(
            priors.b0 + 0.5 * (yty + priors.mu0 @ priors.lambda0 @ priors.mu0
                               - mu_expected @ lam_expected @ mu_expected))
        assert warnings == _warnings()

    def test_non_pd_lambda_n_takes_one_consistent_fallback(self):
        # X'X = [[10, 10.5], [10.5, 10]] makes lambda_n indefinite, with eigenvectors
        # (1, 1) and (1, -1).  X'y leans off (1, 1) by just enough that mu_n has an O(1)
        # component along (1, -1), where the projection moves lambda_n from -0.25 to
        # 1e-10 times its largest eigenvalue, 20.75.  b_n must use the projected
        # lambda_n, as mu_n and the factor do.
        priors = RegPriors(mu0=np.zeros(2), lambda0=np.diag([0.25, 0.25]), a0=20.0, b0=0.5)
        stats = np.array([10.5, 10.0, 1.0 + 2e-9, 1.0 - 2e-9, 1.0])
        warnings = _warnings()
        mu_n, chol_n, a_n, b_n = _coefficient_conditional(stats, 10, priors, True, warnings)
        assert warnings == {"lambda_psd_projected": 1, "b_n_clamped": 0}
        assert a_n == priors.a0 + 5.0
        assert abs(mu_n[0] - mu_n[1]) > 1.0  # the component the projection weighs
        # along (1, 1) mu_n is X'y / 20.75, up to the rounding of cov_n's 1e8-sized entries
        assert mu_n.sum() == pytest.approx(2.0 / 20.75, rel=1e-5)
        along, across = np.array([1.0, 1.0]), np.array([1.0, -1.0])
        lam = (20.75 * np.outer(along, along) + 20.75e-10 * np.outer(across, across)) / 2.0
        assert b_n == pytest.approx(priors.b0 + 0.5 * (1.0 - mu_n @ lam @ mu_n), rel=1e-9)
        # and that matrix is the inverse of chol_n chol_n': mu_n' lambda_n mu_n = |chol_n^-1 mu_n|^2
        whitened = np.linalg.solve(chol_n, mu_n)
        assert b_n == pytest.approx(priors.b0 + 0.5 * (1.0 - whitened @ whitened), rel=1e-12)

    def test_zero_noise_chain_recovers_conjugate_posterior(self):
        data = demo_data()
        rel = exact_release(data, eps_per_query=1e6)
        draws = run_regression_chain(rel, RegPriors.default(), False,
                                     SamplerConfig(iters=4000, seed=3, burn_in=200))
        x, y = data.x, data.y
        stats = np.array([x.sum(), (x * x).sum(), y.sum(), (x * y).sum(), (y * y).sum()])
        mu_n, _, _, _ = _coefficient_conditional(stats, data.n, RegPriors.default(), True,
                                                 _warnings())
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
        # non-PD; the chain must project it, count the event and go on.  Only
        # rounding leaves lambda_n non-PD, so how often that happens moves with the
        # arithmetic: 5 000 iterations see it 10 to 60 times on these seeds, where
        # 500 saw it 0 to 11 times
        priors = RegPriors(mu0=np.array([1.0, 0.0]), lambda0=1e-30 * np.eye(2),
                           a0=20.0, b0=0.5)
        rel = release_regression(demo_data(), 0.1, np.random.default_rng(seed))
        draws = run_regression_chain(rel, priors, False,
                                     SamplerConfig(iters=5000, seed=seed, burn_in=0))
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
