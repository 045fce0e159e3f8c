"""Constrained Gibbs sampler for simple linear regression from noisy statistics.

The release consists of 11 independently noised queries: the six
distinct entries of [X Y]'[X Y] (count, sum of x, sum of x^2, sum of y,
sum of xy, sum of y^2) and the five raw moments of x up to fourth order
that the central-limit model of the statistics needs.  All variables
live on [0, 1] after min-max rescaling, so every query has sensitivity 1.

Each sweep imputes the sufficient statistics from a Gaussian
central-limit model combined with the noisy observations, then performs
the conjugate normal-inverse-gamma regression update from the imputed
statistics, then refreshes the per-query noise scales.  Constrained mode
rejects and resamples the statistic vector until it satisfies the
bounded-data inequalities and [X Y]'[X Y] is PSD, and rejects the
coefficient draw until the feasible-region predicate holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator

from .distributions import sample_inverse_gaussian, sample_laplace, sample_trunc_gamma
from .errors import StuckChainError, ValidationError
from .feasible import RegTheta, regression_stats_feasible, regression_theta_feasible
from .gibbs import SamplerConfig

_REJECTION_CAP = 1_000_000
_CHOL_JITTER = 1e-10

# statistic vector layout (unconstrained): count, sum x, sum x^2, sum y,
# sum xy, sum y^2; constrained mode drops the count entry.
_ACTIVE_PAIRS_FULL = ((0, 0), (1, 0), (1, 1))
_ACTIVE_PAIRS_KNOWN_N = ((1, 0), (1, 1))


@dataclass(frozen=True)
class RegressionData:
    x: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class RegRelease:
    """The 11 noisy queries: 6 sufficient statistics + 5 fourth-moment sums."""

    z: np.ndarray              # noisy (n, sum x, sum x^2, sum y, sum xy, sum y^2)
    fourth_moments: np.ndarray  # noisy (sum x^0 ... sum x^4)
    eps_per_query: float
    n: int

    def __post_init__(self):
        if self.z.shape != (6,) or self.fourth_moments.shape != (5,):
            raise ValueError("RegRelease needs 6 statistics and 5 fourth moments")
        if self.eps_per_query <= 0:
            raise ValueError("eps_per_query must be positive")

    @property
    def total_epsilon(self) -> float:
        return 11.0 * self.eps_per_query


@dataclass(frozen=True)
class RegPriors:
    """Conjugate normal-inverse-gamma prior for (theta, sigma_sq)."""

    mu0: np.ndarray
    lambda0: np.ndarray
    a0: float
    b0: float

    def __post_init__(self):
        if self.mu0.shape != (2,) or self.lambda0.shape != (2, 2):
            raise ValueError("RegPriors are specific to simple regression (d = 2)")
        if self.a0 <= 0 or self.b0 <= 0:
            raise ValueError("a0 and b0 must be positive")
        if not np.allclose(self.lambda0, self.lambda0.T):
            raise ValueError("lambda0 must be symmetric")
        if np.linalg.eigvalsh(self.lambda0).min() <= 0:
            raise ValueError("lambda0 must be positive definite")

    @classmethod
    def default(cls) -> "RegPriors":
        return cls(mu0=np.array([1.0, 0.0]), lambda0=np.diag([0.25, 0.25]),
                   a0=20.0, b0=0.5)


@dataclass(frozen=True)
class RegMomentModel:
    """Noisy second moments eta = E[xx'] and centered fourth moments.

    xi4 is the 2x2x2x2 covariance tensor of vec(xx'); the flattened 4x4
    view is exposed as .xi.
    """

    eta: np.ndarray
    xi4: np.ndarray

    @property
    def xi(self) -> np.ndarray:
        return self.xi4.reshape(4, 4)


@dataclass(frozen=True)
class RegressionDraws:
    theta0: np.ndarray
    theta1: np.ndarray
    sigma_sq: np.ndarray
    stats: np.ndarray
    config: SamplerConfig
    warnings: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.theta0.size


def ingest_and_rescale(x_raw, y_raw) -> RegressionData:
    """Min-max rescale both columns to [0, 1]."""
    x = np.asarray(x_raw, dtype=float)
    y = np.asarray(y_raw, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("x and y must be 1-d arrays of equal length")
    if x.size < 3:
        raise ValidationError("need at least 3 observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("data contain non-finite values")
    spans = []
    for col in (x, y):
        span = col.max() - col.min()
        if span == 0.0:
            raise ValidationError("constant column cannot be min-max rescaled")
        spans.append((col.min(), span))
    return RegressionData(
        x=(x - spans[0][0]) / spans[0][1],
        y=(y - spans[1][0]) / spans[1][1],
    )


def release_regression(data: RegressionData, eps_per_query: float,
                       rng: Generator) -> RegRelease:
    """Laplace-noise each of the 11 unit-sensitivity queries independently."""
    x, y = data.x, data.y
    n = data.n
    exact = np.array([
        float(n),
        x.sum(),
        (x * x).sum(),
        y.sum(),
        (x * y).sum(),
        (y * y).sum(),
    ])
    scale = 1.0 / eps_per_query
    z = np.array([sample_laplace(v, scale, rng) for v in exact])
    exact4 = np.array([np.sum(x ** p) for p in range(5)])
    fourth = np.array([sample_laplace(v, scale, rng) for v in exact4])
    return RegRelease(z=z, fourth_moments=fourth, eps_per_query=eps_per_query, n=n)


def nearest_psd(m: np.ndarray) -> np.ndarray:
    """Eigenvalue-clipping projection onto the PSD cone; idempotent on PSD input."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("nearest_psd requires finite entries")
    sym = 0.5 * (m + m.T)
    vals, vecs = np.linalg.eigh(sym)
    clipped = np.clip(vals, 0.0, None)
    out = (vecs * clipped) @ vecs.T
    return 0.5 * (out + out.T)


def moment_model_from_release(release: RegRelease) -> RegMomentModel:
    """Build (eta, xi) from the noisy raw moments of x, per-observation scale."""
    m = release.fourth_moments / release.n
    eta = np.array([[m[0], m[1]], [m[1], m[2]]])
    xi4 = np.empty((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    xi4[i, j, k, l] = m[i + j + k + l] - eta[i, j] * eta[k, l]
    return RegMomentModel(eta=eta, xi4=xi4)


def moment_model(theta: np.ndarray, sigma_sq: float, model: RegMomentModel,
                 n: int, constrained: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per-observation mean and PSD-projected covariance of the statistics.

    The mean of the final entry is sigma_sq + theta' eta theta; the
    caller scales everything by n.  Constrained mode drops the known
    count statistic, shrinking the dimension from 6 to 5.
    """
    if sigma_sq <= 0:
        raise ValueError("sigma_sq must be positive")
    eta, xi4 = model.eta, model.xi4
    pairs = _ACTIVE_PAIRS_KNOWN_N if constrained else _ACTIVE_PAIRS_FULL
    eta_theta = eta @ theta
    quad = float(theta @ eta_theta)

    mu_t = np.concatenate([
        [eta[i, j] for (i, j) in pairs],
        eta_theta,
        [sigma_sq + quad],
    ])

    xi_th_l = np.einsum("ijkl,l->ijk", xi4, theta)       # contract one theta
    xi_th_jl = np.einsum("ijk,j->ik", np.einsum("ijkl,l->ijk", xi4, theta), theta)
    xi_th_kl = np.einsum("ijkl,k,l->ij", xi4, theta, theta)
    xi_th_jkl = np.einsum("ijkl,j,k,l->i", xi4, theta, theta, theta)
    xi_th_all = float(np.einsum("ijkl,i,j,k,l->", xi4, theta, theta, theta, theta))

    na = len(pairs)
    p = na + 3
    sigma = np.empty((p, p))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            sigma[a, b] = xi4[i, j, k, l]
        sigma[a, na:na + 2] = xi_th_l[i, j, :]
        sigma[na:na + 2, a] = xi_th_l[i, j, :]
        sigma[a, p - 1] = xi_th_kl[i, j]
        sigma[p - 1, a] = xi_th_kl[i, j]
    sigma[na:na + 2, na:na + 2] = sigma_sq * eta + xi_th_jl
    cross = 2.0 * sigma_sq * eta_theta + xi_th_jkl
    sigma[na:na + 2, p - 1] = cross
    sigma[p - 1, na:na + 2] = cross
    sigma[p - 1, p - 1] = 2.0 * sigma_sq ** 2 + 4.0 * sigma_sq * quad + xi_th_all
    return mu_t, nearest_psd(sigma)


def _spd_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse through the eigendecomposition with a 1e-10 relative floor.

    Keeps PSD-projected (hence possibly singular) covariances invertible
    without shifting well-conditioned ones measurably.
    """
    sym = 0.5 * (m + m.T)
    vals, vecs = np.linalg.eigh(sym)
    floor = _CHOL_JITTER * max(float(vals[-1]), 1e-30)
    vals = np.clip(vals, floor, None)
    out = (vecs / vals) @ vecs.T
    return 0.5 * (out + out.T)


def _cholesky_jittered(m: np.ndarray) -> np.ndarray:
    scale = max(float(np.trace(m)) / m.shape[0], 1e-30)
    jitter = 0.0
    for _ in range(14):
        try:
            return np.linalg.cholesky(m + jitter * np.eye(m.shape[0]))
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, _CHOL_JITTER * scale)
    raise StuckChainError("precision Cholesky failed even with jitter",
                          {"trace": float(np.trace(m))})


def _zt_z_psd(s: np.ndarray, n: int) -> bool:
    b = np.array([
        [float(n), s[0], s[2]],
        [s[0], s[1], s[3]],
        [s[2], s[3], s[4]],
    ])
    return float(np.linalg.eigvalsh(b).min()) >= 0.0


def _conjugate_update(xtx: np.ndarray, xty: np.ndarray, yty: float, n: int,
                      priors: RegPriors) -> tuple[np.ndarray, np.ndarray, float, float]:
    lambda_n = xtx + priors.lambda0
    mu_n = _spd_inverse(lambda_n) @ (priors.lambda0 @ priors.mu0 + xty)
    a_n = priors.a0 + n / 2.0
    b_n = priors.b0 + (yty + priors.mu0 @ priors.lambda0 @ priors.mu0
                       - mu_n @ lambda_n @ mu_n) / 2.0
    return mu_n, lambda_n, a_n, float(b_n)


def run_regression_chain(release: RegRelease, priors: RegPriors, constrained: bool,
                         config: SamplerConfig) -> RegressionDraws:
    """Gibbs sampler over (statistics, theta, sigma_sq, noise scales).

    Constrained mode enforces the full bounded-data inequality system,
    sigma_sq <= 1/4 and PSD [X Y]'[X Y] on the imputed statistics, and
    the feasible-region predicate on theta; every stored draw satisfies
    them exactly.  A rejection loop exceeding one million attempts raises
    StuckChainError naming the constraint that failed most.
    """
    rng = np.random.default_rng(config.seed)
    n = release.n
    eps_q = release.eps_per_query
    model = moment_model_from_release(release)
    z_active = release.z[1:].copy() if constrained else release.z.copy()
    p = z_active.size

    theta = priors.mu0.copy()
    # Constrained mode caps the starting variance at its feasible maximum;
    # an infeasible start makes the very first imputation needlessly sticky.
    sigma_sq = min(priors.b0, 0.25) if constrained else priors.b0
    omega_inv = np.full(p, eps_q * eps_q / 2.0)

    kept = config.kept
    out_t0 = np.empty(len(kept))
    out_t1 = np.empty(len(kept))
    out_s2 = np.empty(len(kept))
    out_stats = np.empty((len(kept), p))
    warnings = {"lambda_psd_projected": 0, "b_n_clamped": 0}

    k = 0
    for t in range(config.iters):
        # -- impute the statistic vector --
        mu_t, sigma_t = moment_model(theta, sigma_sq, model, n, constrained)
        model_prec = _spd_inverse(sigma_t)
        prec = model_prec / n + np.diag(omega_inv)
        chol_prec = _cholesky_jittered(prec)  # prec = L L'
        rhs = model_prec @ mu_t + omega_inv * z_active
        mu_3 = np.linalg.solve(chol_prec.T, np.linalg.solve(chol_prec, rhs))

        def _draw_stats() -> np.ndarray:
            z = rng.standard_normal(p)
            return mu_3 + np.linalg.solve(chol_prec.T, z)

        if not constrained:
            stats = _draw_stats()
        else:
            fails = {"stats": 0, "psd": 0}
            for attempt in range(_REJECTION_CAP):
                stats = _draw_stats()
                if not regression_stats_feasible(stats[0], stats[1], stats[2],
                                                 stats[3], stats[4], n):
                    fails["stats"] += 1
                    continue
                if not _zt_z_psd(stats, n):
                    fails["psd"] += 1
                    continue
                break
            else:
                worst = max(fails, key=fails.get)
                raise StuckChainError(
                    f"statistic imputation stuck on the {worst} constraint",
                    {"iteration": t, "fails": fails},
                )

        # -- conjugate (theta, sigma_sq) update from the imputed statistics --
        if constrained:
            xtx = np.array([[float(n), stats[0]], [stats[0], stats[1]]])
            xty = stats[2:4].copy()
            yty = float(stats[4])
        else:
            b = nearest_psd(np.array([
                [stats[0], stats[1], stats[3]],
                [stats[1], stats[2], stats[4]],
                [stats[3], stats[4], stats[5]],
            ]))
            xtx = b[:2, :2]
            xty = b[:2, 2].copy()
            yty = float(b[2, 2])
        mu_n, lambda_n, a_n, b_n = _conjugate_update(xtx, xty, yty, n, priors)
        if np.linalg.eigvalsh(lambda_n).min() <= 0:
            lambda_n = nearest_psd(lambda_n) + _CHOL_JITTER * np.eye(2)
            warnings["lambda_psd_projected"] += 1
            mu_n = _spd_inverse(lambda_n) @ (priors.lambda0 @ priors.mu0 + xty)
        if b_n <= 0.0:
            b_n = 1e-12
            warnings["b_n_clamped"] += 1
        chol_theta = _cholesky_jittered(_spd_inverse(lambda_n))
        if not constrained:
            sigma_sq = 1.0 / sample_trunc_gamma(a_n, b_n, 0.0, math.inf, rng)
            theta = mu_n + math.sqrt(sigma_sq) * (chol_theta @ rng.standard_normal(2))
        else:
            for attempt in range(_REJECTION_CAP):
                sigma_sq = 1.0 / sample_trunc_gamma(a_n, b_n, 4.0, math.inf, rng)
                theta = mu_n + math.sqrt(sigma_sq) * (chol_theta @ rng.standard_normal(2))
                if regression_theta_feasible(RegTheta(float(theta[0]), float(theta[1]))):
                    break
            else:
                raise StuckChainError(
                    "coefficient update stuck on the theta feasibility constraint",
                    {"iteration": t, "mu_n": mu_n.tolist(), "sigma_sq": sigma_sq},
                )

        # -- per-query noise scales --
        for j in range(p):
            diff = abs(z_active[j] - stats[j])
            if diff < 1e-12:
                diff = 1e-12
            omega_inv[j] = sample_inverse_gaussian(eps_q / diff, eps_q * eps_q, rng)

        if t in kept:
            out_t0[k] = theta[0]
            out_t1[k] = theta[1]
            out_s2[k] = sigma_sq
            out_stats[k] = stats
            k += 1

    return RegressionDraws(theta0=out_t0, theta1=out_t1, sigma_sq=out_s2,
                           stats=out_stats, config=config, warnings=warnings)
