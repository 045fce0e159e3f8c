"""Independent numerical oracles shared by the test modules.

Everything here deliberately avoids the library's own sampling paths:
CDFs come from Simpson quadrature of density formulas, posteriors from
grid quadrature of closed-form likelihoods, moments from brute-force
recomputation.
"""

from __future__ import annotations

import numpy as np
from scipy import special as sc

from dpgibbs.distributions import tgm_pdf


def simpson_cdf_of_pdf(pdf, lo: float, hi: float, n_points: int = 20001,
                       normalize: bool = True):
    """Tabulated CDF of a density by composite Simpson quadrature.

    Returns (grid, cdf); with ``normalize`` the CDF ends at one.
    """
    if n_points % 2 == 0:
        n_points += 1
    grid = np.linspace(lo, hi, n_points)
    vals = np.array([pdf(float(x)) for x in grid])
    h = grid[1] - grid[0]
    # Simpson on each pair of panels, accumulated
    cdf = np.zeros(n_points)
    pair = (h / 3.0) * (vals[:-2:2] + 4.0 * vals[1:-1:2] + vals[2::2])
    cdf[2::2] = np.cumsum(pair)
    # odd points by trapezoid between Simpson nodes (fine at this grid density)
    cdf[1::2] = cdf[0:-1:2] + h * 0.5 * (vals[0:-1:2] + vals[1::2])
    if normalize:
        cdf = cdf / cdf[-1]
    return grid, cdf


def tgm_quadrature_cdf(params: tuple[float, float, float, float],
                       hi: float | None = None):
    """CDF oracle for the TGM (alpha, beta, lam, tau) from Simpson quadrature.

    The density carries an x^(alpha-1) endpoint factor, so the piece that
    touches zero is integrated in u = x^alpha coordinates, where the
    transformed integrand is bounded; the remaining piece (and the kink at
    tau) is handled by splitting the grid there.
    """
    a, beta, lam, tau = params
    if hi is None:
        mean_hint = a / (beta - lam)
        hi = max(mean_hint * 12.0, tau * 3.0, 2.0)
    split = tau if 0.0 < tau < hi else hi / 2.0

    def transformed_piece(x_hi, n_points=20001):
        u = np.linspace(0.0, x_hi ** a, n_points)
        x = u ** (1.0 / a)
        g = np.zeros(n_points)
        g[1:] = np.array([tgm_pdf(*params, float(v)) for v in x[1:]]) \
            * x[1:] ** (1.0 - a) / a
        g[0] = g[1]  # bounded limit at the endpoint
        h = u[1] - u[0]
        cdf = np.zeros(n_points)
        pair = (h / 3.0) * (g[:-2:2] + 4.0 * g[1:-1:2] + g[2::2])
        cdf[2::2] = np.cumsum(pair)
        cdf[1::2] = cdf[0:-1:2] + h * 0.5 * (g[0:-1:2] + g[1::2])
        return x, cdf

    x1, c1 = transformed_piece(split)
    x2, c2 = simpson_cdf_of_pdf(lambda x: tgm_pdf(*params, x), split, hi,
                                normalize=False)
    grid = np.concatenate([x1, x2[1:]])
    cdf = np.concatenate([c1, c1[-1] + c2[1:]])
    cdf /= cdf[-1]

    def cdf_fn(x):
        return np.interp(np.asarray(x, dtype=float), grid, cdf, left=0.0, right=1.0)

    return cdf_fn


def gamma_cdf(shape: float, rate: float):
    return lambda x: sc.gammainc(shape, rate * np.asarray(x, dtype=float))


def laplace_gauss_marginal(ybar_star, mu, sigma_sq, n, eps1):
    """Closed-form Laplace-normal convolution density (erf route).

    Cross-check for the quadrature-based marginal of the noisy mean.
    """
    lam = eps1 * n
    s = np.sqrt(sigma_sq / n)
    d = np.asarray(ybar_star) - mu
    t1 = -lam * d + sc.log_ndtr(d / s - lam * s)
    t2 = lam * d + sc.log_ndtr(-d / s - lam * s)
    return 0.5 * lam * np.exp(0.5 * lam * lam * s * s + np.logaddexp(t1, t2))


def flat_posterior_grid_oracle(ybar_star: float, s_sq_star: float, n: int,
                               eps1: float, eps2: float,
                               n_mu: int = 400, n_sig: int = 400):
    """Posterior means of (mu, sigma_sq) under the flat unconstrained model.

    Grid quadrature of the product of the two noisy-statistic likelihoods,
    restricted to the sigma_sq region the collapsed sampler enforces.
    """
    from dpgibbs.evidence import likelihood_s2_star

    cap = (n - 1.0) / (2.0 * n * eps2)
    spread = np.sqrt(max(s_sq_star, 1e-4) / n) + 1.0 / (eps1 * n)
    mus = np.linspace(ybar_star - 9 * spread, ybar_star + 9 * spread, n_mu)
    sig2s = np.geomspace(1e-6, cap * (1 - 1e-9), n_sig)

    f_s2 = np.array([likelihood_s2_star(s_sq_star, float(v), n, eps2) for v in sig2s])
    f_yb = laplace_gauss_marginal(mus[:, None], ybar_star, sig2s[None, :], n, eps1)
    w = f_yb * f_s2[None, :]
    w *= np.gradient(mus)[:, None] * np.gradient(sig2s)[None, :]
    z = w.sum()
    mu_mean = float((w * mus[:, None]).sum() / z)
    sig_mean = float((w * sig2s[None, :]).sum() / z)
    return mu_mean, sig_mean


def truncnorm_mean_quadrature(mu: float, sigma: float, lo: float = 0.0,
                              hi: float = 1.0) -> float:
    """Mean of a truncated normal by Simpson quadrature of x f(x)."""
    grid = np.linspace(lo, hi, 40001)
    z = (grid - mu) / sigma
    dens = np.exp(-0.5 * z * z)
    num = np.trapezoid(grid * dens, grid)
    den = np.trapezoid(dens, grid)
    return float(num / den)


def beta22_cdf(x):
    """CDF of Beta(2, 2): x^2 (3 - 2x) on [0, 1]."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)
