"""Constrained Gibbs sampler for simple linear regression from noisy statistics.

The release consists of 11 independently noised queries: the six
distinct entries of [X Y]'[X Y] (count, sum of x, sum of x^2, sum of y,
sum of xy, sum of y^2) and the five raw moments of x up to fourth order
that the central-limit model of the statistics needs.  All variables
live on [0, 1] after min-max rescaling, so every query has sensitivity 1.

The statistics are the sums over observations of the pairs w_a w_b of
w = (1, x, y) = M(theta) u, where u = (1, x, e), e ~ N(0, sigma_sq), and
M(theta) = [[1, 0, 0], [0, 1, 0], [theta0, theta1, 1]].  So their
central-limit model (Bernstein & Sheldon, NeurIPS 2019) is one identity:
per observation, the mean is A E[vec uu'] and the covariance
A Cov(vec uu') A', with A the pairs' rows of M (x) M.  The moments of u
are polynomials in sigma_sq whose coefficients the noisy raw moments
m_k = sum x^k / n fix once per chain: a product with a factor from
(1, x) takes m[#x] E[e^#e], so the noisy count enters through m_0, and a
product of e alone takes E[e^#e].

Each sweep imputes the sufficient statistics from that Gaussian
central-limit model combined with the noisy observations (its covariance
projected onto the PSD cone and inverted in one eigendecomposition), then
performs the conjugate normal-inverse-gamma regression update from the
imputed statistics (in unconstrained mode their [X Y]'[X Y] is projected
onto the PSD cone only when LAPACK's Cholesky, dpotrf, finds it not PD),
then refreshes the per-query noise scales.
Constrained mode rejects and resamples the statistic vector until it
passes the bounded-data inequalities and the same dpotrf test on [X Y]'[X Y]
(PD, not PSD: the two differ on a set of probability zero), and rejects the
coefficient draw until the feasible-region predicate holds.  A dpotrf that
fails on a precision, PD by construction, or a dsyevd that does not
converge raises NumericalError (exit 4).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator
from scipy.linalg.lapack import dpotrf, dpotrs, dsyevd, dtrtrs

from .distributions import sample_inverse_gaussian, sample_laplace, sample_trunc_gamma
from .errors import NumericalError, StuckChainError, ValidationError
from .feasible import RegTheta, regression_stats_feasible, regression_theta_feasible
from .gibbs import SamplerConfig

_REJECTION_CAP = 1_000_000
_EIG_FLOOR = 1e-10  # least over largest eigenvalue of _spd_inverse and of a projected lambda_n
_DIFF_FLOOR = 1e-12  # least |released - imputed| statistic the noise-scale draw sees

# statistic vector layout (unconstrained): count, sum x, sum x^2, sum y,
# sum xy, sum y^2, the sums of w_a w_b over the pairs (a, b) below of
# w = (1, x, y); constrained mode drops the count entry.
_PAIRS = np.array([[0, 0, 1, 0, 1, 2], [0, 1, 1, 2, 2, 2]])
_ZT_Z_LAYOUT = np.array([[0, 1, 3], [1, 2, 4], [3, 4, 5]])  # [X Y]'[X Y] from the 6-vector
_NORMAL_MOMENTS = np.array([1.0, 0.0, 1.0, 0.0, 3.0])  # E[e^k] / sigma^k, e ~ N(0, sigma^2)


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
        eps = self.eps_per_query  # eps^2 is the rate of the noise scales
        if not (eps > 0.0 and 0.0 < eps * eps < math.inf):
            raise ValueError("eps_per_query and its square must be positive and finite")


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
        if not (0.0 < self.a0 < math.inf and 0.0 < self.b0 < math.inf):
            raise ValueError("a0 and b0 must be finite and positive")
        if not (np.all(np.isfinite(self.mu0)) and np.all(np.isfinite(self.lambda0))):
            raise ValueError("mu0 and lambda0 must be finite")
        # exactly: the update reads lambda0's upper triangle in one place, all of it in another
        if not np.array_equal(self.lambda0, self.lambda0.T):
            raise ValueError("lambda0 must be symmetric")
        if np.linalg.eigvalsh(self.lambda0).min() <= 0:
            raise ValueError("lambda0 must be positive definite")
        # (lambda0 mu0, mu0' lambda0 mu0), which every coefficient update adds; one that
        # overflows ends there in NumericalError, so it raises no warning here
        with np.errstate(over="ignore", invalid="ignore"):
            object.__setattr__(self, "_terms", (self.lambda0 @ self.mu0,
                                               self.mu0 @ self.lambda0 @ self.mu0))

    @classmethod
    def default(cls) -> "RegPriors":
        return cls(mu0=np.array([1.0, 0.0]), lambda0=np.diag([0.25, 0.25]),
                   a0=20.0, b0=0.5)


@dataclass(frozen=True)
class RegMomentModel:
    """The moments of u = (1, x, e), e ~ N(0, sigma_sq), as polynomials in sigma_sq.

    mean[a, k] and cov[a, b, k] are the coefficients of sigma_sq^k in
    E[vec uu'] and Cov(vec uu'), vec taken row-major.  A product of u
    entries with at least one factor from (1, x) has the expectation
    m[#x] E[e^#e], m[k] = noisy sum x^k / n (so m[0] is the noisy count
    over n, not 1); a product of e alone has E[e^#e], so E[e^2] =
    sigma_sq and E[e^4] = 3 sigma_sq^2.
    """

    mean: np.ndarray  # (9, 3)
    cov: np.ndarray   # (9, 9, 3)


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
    if not (eps_per_query > 0.0 and 0.0 < eps_per_query * eps_per_query < math.inf):
        raise ValueError("eps_per_query and its square must be positive and finite")
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


def _clip_eigenvalues(m: np.ndarray, rel_floor: float, invert: bool = False) -> np.ndarray:
    """(m + m')/2 with its eigenvalues clipped below rel_floor times the largest (below 0
    when rel_floor is 0), or the inverse of that matrix if invert.

    The eigendecomposition is LAPACK dsyevd on the lower triangle, as np.linalg.eigh
    computes it; one that does not converge raises NumericalError.
    """
    sym = 0.5 * (m + m.T)
    vals, vecs, info = dsyevd(sym, compute_v=1, lower=1)
    if info != 0:
        raise NumericalError("eigendecomposition did not converge",
                             {"trace": float(np.trace(sym))})
    vals = np.clip(vals, rel_floor * max(float(vals[-1]), 1e-30) if rel_floor else 0.0, None)
    out = (vecs / vals if invert else vecs * vals) @ vecs.T
    return 0.5 * (out + out.T)


def nearest_psd(m: np.ndarray) -> np.ndarray:
    """Eigenvalue-clipping projection onto the PSD cone; idempotent on PSD input."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("nearest_psd requires finite entries")
    return _clip_eigenvalues(m, 0.0)


def _product_moments(m: np.ndarray, k: int) -> np.ndarray:
    """(3^k, 3): coefficients of 1, sigma_sq, sigma_sq^2 in E[u_i1 ... u_ik], row-major."""
    idx = np.indices((3,) * k).reshape(k, -1)
    nx, ne = (idx == 1).sum(axis=0), (idx == 2).sum(axis=0)
    value = np.where(ne < k, m[nx], 1.0) * _NORMAL_MOMENTS[ne]  # e alone: no m[0]
    return value[:, None] * (ne[:, None] == 2 * np.arange(3))


def moment_model_from_release(release: RegRelease) -> RegMomentModel:
    """The RegMomentModel of the noisy raw moments of x, per-observation scale."""
    m = release.fourth_moments / release.n
    mean = _product_moments(m, 2)  # no sigma_sq^2 term
    cov = _product_moments(m, 4).reshape(9, 9, 3)
    for i, j in itertools.product(range(2), repeat=2):
        cov[:, :, i + j] -= np.outer(mean[:, i], mean[:, j])
    return RegMomentModel(mean=mean, cov=cov)


def moment_model(theta: np.ndarray, sigma_sq: float, model: RegMomentModel,
                 constrained: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per-observation mean and covariance of the statistics.

    The statistics are the pairs w_a w_b of w = (1, x, y) = M u, with u =
    (1, x, e) and M = [[1, 0, 0], [0, 1, 0], [theta0, theta1, 1]].  So with
    A the pairs' rows of M (x) M, the mean is A E[vec uu'] and the
    covariance A Cov(vec uu') A', where the moments of u are those of
    RegMomentModel: m[#x] E[e^#e] for a product with a factor from (1, x),
    the noisy count entering through m[0], and E[e^#e] for e alone.  The
    caller scales everything by n.  Constrained mode drops the known count
    statistic, shrinking the dimension from 6 to 5.  The covariance need
    not be PSD; _spd_inverse projects it as it inverts it.
    """
    if sigma_sq <= 0:
        raise ValueError("sigma_sq must be positive")
    # sigma_sq * sigma_sq, not ** 2, which raises OverflowError rather than giving inf
    powers = np.array([1.0, sigma_sq, sigma_sq * sigma_sq])
    m_theta = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [theta[0], theta[1], 1.0]])
    left, right = _PAIRS[:, 1:] if constrained else _PAIRS
    a = (m_theta[left, :, None] * m_theta[right, None, :]).reshape(left.size, 9)
    with np.errstate(invalid="ignore"):  # 0 * inf where sigma_sq^2 overflows, raised below
        mu_t = a @ (model.mean @ powers)
        sigma = a @ (model.cov @ powers) @ a.T
    if not (np.isfinite(mu_t).all() and np.isfinite(sigma).all()):
        raise NumericalError("the statistics' moment model is not finite",
                             {"theta": theta.tolist(), "sigma_sq": sigma_sq})
    return mu_t, sigma


def _spd_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse through the eigendecomposition with a 1e-10 relative floor.

    The floor also clips negative eigenvalues, as nearest_psd would, so an
    indefinite m is projected onto the PSD cone and inverted in one dsyevd;
    singular ones stay invertible, well-conditioned ones are not shifted.
    """
    return _clip_eigenvalues(m, _EIG_FLOOR, invert=True)


def _is_pd(m: np.ndarray) -> bool:
    """Whether LAPACK's Cholesky, dpotrf, factors m: the one positive-definiteness test."""
    return dpotrf(m, lower=1)[1] == 0


def _cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of m, which every caller builds positive definite."""
    chol, info = dpotrf(m, lower=1)
    if info != 0:
        raise NumericalError("precision Cholesky failed", {"trace": float(np.trace(m))})
    return chol


def _inverse_cholesky_2x2(m: np.ndarray) -> np.ndarray | None:
    """L with m^-1 = L L', lower triangular, for a symmetric 2x2 m; None unless m is PD.

    With m = [[a, b], [b, d]], m is PD iff d > 0 and r = a - b (b / d) > 0, and then
    L = [[1, 0], [-b / d, sqrt(r / d)]] / sqrt(r); as b (b / d) < a, no step overflows.
    """
    (a, b), (_, d) = m.tolist()
    if not (d > 0.0 and (r := a - b * (c := b / d)) > 0.0):
        return None
    l00 = 1.0 / math.sqrt(r)
    return np.array([[l00, 0.0], [-c * l00, 1.0 / math.sqrt(d)]])


def _zt_z(stats: np.ndarray, n: int) -> np.ndarray:
    """[X Y]'[X Y] from the statistic vector; a 5-vector omits the known count n."""
    if stats.size == 5:
        stats = np.concatenate(([float(n)], stats))
    return stats[_ZT_Z_LAYOUT]


def _first_passing(draw, checks: dict, message: str, diagnostics):
    """The first draw() that passes every check, run in order.

    After _REJECTION_CAP draws raises StuckChainError: message is
    formatted with the check that failed most, and the diagnostics hold
    diagnostics(last draw), the attempt count and the fails per check.
    """
    if not checks:
        return draw()
    fails = dict.fromkeys(checks, 0)
    for _ in range(_REJECTION_CAP):
        value = draw()
        failed = next((name for name, check in checks.items() if not check(value)), None)
        if failed is None:
            return value
        fails[failed] += 1
    raise StuckChainError(message.format(worst=max(fails, key=fails.get)),
                          {**diagnostics(value), "attempts": _REJECTION_CAP, "fails": fails})


def _statistics_conditional(theta, sigma_sq, model, n, constrained, omega_inv, z_active
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Mean and precision Cholesky factor of the imputed statistic vector."""
    mu_t, sigma_t = moment_model(theta, sigma_sq, model, constrained)
    model_prec = _spd_inverse(sigma_t)
    prec = model_prec / n
    prec.flat[::prec.shape[0] + 1] += omega_inv
    chol_prec = _cholesky(prec)  # prec = L L'
    mean = dpotrs(chol_prec, model_prec @ mu_t + omega_inv * z_active, lower=1)[0]
    if not np.isfinite(mean).all():
        raise NumericalError("the imputed statistics' mean is not finite",
                             {"theta": theta.tolist(), "sigma_sq": sigma_sq,
                              "omega_inv": omega_inv.tolist()})
    return mean, chol_prec


def _coefficient_conditional(stats, n, priors, constrained, warnings
                             ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(mu_n, chol(lambda_n^-1), a_n, b_n) of the normal-inverse-gamma posterior of
    (theta, sigma_sq) given the imputed statistics.

    Unconstrained statistics need not form a PSD [X Y]'[X Y]; it is
    projected only when dpotrf finds it not PD.  A lambda_n =
    X'X + lambda0 that is not PD has its eigenvalues clipped below 1e-10
    times the largest, and the factor, mu_n and b_n all come from that one
    matrix; b_n <= 0 is clamped.  Each fallback is counted in warnings.
    """
    b = _zt_z(stats, n)
    if not constrained and not _is_pd(b):
        b = nearest_psd(b)
    lambda_n = b[:2, :2] + priors.lambda0
    chol_n = _inverse_cholesky_2x2(lambda_n)
    if chol_n is None:
        lambda_n = _clip_eigenvalues(lambda_n, _EIG_FLOOR)
        warnings["lambda_psd_projected"] += 1
        chol_n = _inverse_cholesky_2x2(lambda_n)
        if chol_n is None:
            raise NumericalError("the projected coefficient precision is not PD",
                                 {"trace": float(np.trace(lambda_n))})
    cov_n = chol_n @ chol_n.T
    mu_n = cov_n @ (priors._terms[0] + b[:2, 2])
    b_n = float(priors.b0 + (float(b[2, 2]) + priors._terms[1] - mu_n @ lambda_n @ mu_n) / 2.0)
    if not (math.isfinite(b_n) and np.isfinite(mu_n).all()):
        raise NumericalError("the coefficient posterior is not finite", {"b_n": b_n})
    if b_n <= 0.0:
        b_n = 1e-12
        warnings["b_n_clamped"] += 1
    return mu_n, chol_n, priors.a0 + n / 2.0, b_n


def run_regression_chain(release: RegRelease, priors: RegPriors, constrained: bool,
                         config: SamplerConfig) -> RegressionDraws:
    """Gibbs sampler over (statistics, theta, sigma_sq, noise scales).

    Constrained mode enforces the full bounded-data inequality system,
    sigma_sq <= 1/4 and PD [X Y]'[X Y] on the imputed statistics, and
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
    # the PD check is the costlier one, so it runs only on draws that pass
    # the inequalities
    stats_checks = {
        "stats": lambda s: regression_stats_feasible(*s, n),
        "psd": lambda s: _is_pd(_zt_z(s, n)),
    } if constrained else {}
    theta_checks = {
        "theta": lambda d: regression_theta_feasible(RegTheta(float(d[1][0]), float(d[1][1]))),
    } if constrained else {}
    precision_lo = 4.0 if constrained else 0.0  # 1/sigma_sq >= 4 is sigma_sq <= 1/4

    warnings = {"lambda_psd_projected": 0, "b_n_clamped": 0}

    def sweep(t):
        nonlocal theta, sigma_sq
        mu_3, chol_prec = _statistics_conditional(theta, sigma_sq, model, n, constrained,
                                                  omega_inv, z_active)
        stats = _first_passing(
            lambda: mu_3 + dtrtrs(chol_prec, rng.standard_normal(p), lower=1, trans=1)[0],
            stats_checks, "statistic imputation stuck on the {worst} constraint",
            lambda _: {"iteration": t})

        mu_n, chol_theta, a_n, b_n = _coefficient_conditional(stats, n, priors, constrained,
                                                              warnings)

        def draw_coefficients():
            s2 = 1.0 / sample_trunc_gamma(a_n, b_n, precision_lo, math.inf, rng)
            if not 0.0 < s2 < math.inf:
                raise NumericalError("the sigma_sq draw is 0 or inf", {"a_n": a_n, "b_n": b_n})
            return s2, mu_n + math.sqrt(s2) * (chol_theta @ rng.standard_normal(2))

        sigma_sq, theta = _first_passing(
            draw_coefficients, theta_checks,
            "coefficient update stuck on the theta feasibility constraint",
            lambda last: {"iteration": t, "mu_n": mu_n.tolist(), "sigma_sq": last[0]})

        # -- per-query noise scales --
        for j in range(p):
            diff = max(abs(z_active[j] - stats[j]), _DIFF_FLOOR)
            omega_inv[j] = sample_inverse_gaussian(eps_q / diff, eps_q * eps_q, rng)
        return np.concatenate((theta, [sigma_sq], stats))

    cols = config.record(sweep, p + 3)  # theta0, theta1, sigma_sq, statistics
    return RegressionDraws(theta0=cols[0], theta1=cols[1], sigma_sq=cols[2],
                           stats=cols[3:].T.copy(), config=config, warnings=warnings)
