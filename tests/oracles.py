"""Independent numerical oracles shared by the test modules.

Everything here deliberately avoids the library's own sampling paths:
CDFs come from Simpson quadrature of density formulas, posteriors from
grid quadrature of closed-form likelihoods, moments from brute-force
recomputation, and the noisy-mean density also from adaptive quadrature
of its convolution.  The closed-form densities live here because only
tests use them: the TGM weights and density (``tgm_weights``,
``tgm_pdf``, which share the log-space weights of
``dpgibbs.distributions`` with the TGM sampler) and the noisy-statistic
likelihoods (``likelihood_s2_star``, ``laplace_gauss_marginal``).

The exceptions are the two reference sweeps.  ``augmented_sweep_reference``
is the latent-value sweep written one latent at a time, with its O(1)
moment update and acceptance probability as separate helpers, against
which the package's block-and-scan sweep is checked.
``gibbs_step_reference`` is the collapsed sweep as one conditional draw
per coordinate, against which the blocked sweep with its scale move is
checked.  ``collapsed_joint_draws`` (rejection from the prior and data
model) and ``successive_conditional_draws`` (the sweep under test,
alternated with release regeneration) are the two sides of Geweke's
joint-distribution test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy import special as sc
from scipy.special import cython_special as cs

from dpgibbs.distributions import (
    _check_tgm,
    _log_reg_inc_gamma_lower,
    _log_reg_inc_gamma_upper,
    _tgm_log_weights,
    sample_inverse_gaussian,
    sample_tgm,
    sample_trunc_normal,
)
from dpgibbs.errors import SamplingError
from dpgibbs.feasible import mean_window
from dpgibbs.gibbs import (
    _ABS_DIFF_FLOOR,
    ConstraintMode,
    GibbsState,
    draw_mu,
    draw_sigma_sq,
    draw_ybar,
)
from dpgibbs.release import UNIT, Budget, PrivateRelease
from dpgibbs.summary import _GRID_SIZE, _KDE_CHUNK, _silverman_bandwidth


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


def tgm_weights(alpha: float, beta: float, lam: float, tau: float) -> tuple[float, float]:
    """Mixture weights (pi1, pi2) of the TGM for tau > 0.

    pi1 weighs the rate beta-lam component on (0, tau]; pi2 weighs the
    rate beta+lam component on (tau, inf).  Computed in log space; the
    pair sums to one.
    """
    _check_tgm(alpha, beta, lam, tau)
    if tau <= 0:
        raise ValueError("tgm_weights requires tau > 0; the tau <= 0 case is a plain gamma")
    log_w1, log_w2 = _tgm_log_weights(alpha, beta, lam, tau, math.inf)
    if log_w1 == -math.inf and log_w2 == -math.inf:
        raise SamplingError("TGM weights underflowed on both components",
                            {"params": (alpha, beta, lam, tau)})
    pi1 = float(sc.expit(log_w1 - log_w2))
    return pi1, 1.0 - pi1


def tgm_pdf(alpha: float, beta: float, lam: float, tau: float, x: float) -> float:
    """Density of the TGM at x > 0."""
    _check_tgm(alpha, beta, lam, tau)
    if not x > 0:
        raise ValueError("tgm_pdf requires x > 0")
    a = alpha
    if tau <= 0:
        rate = beta + lam
        logpdf = a * math.log(rate) - cs.gammaln(a) + (a - 1.0) * math.log(x) - rate * x
        return math.exp(logpdf)
    pi1, pi2 = tgm_weights(alpha, beta, lam, tau)
    if x <= tau:
        rate = beta - lam
        log_norm = cs.gammaln(a) + _log_reg_inc_gamma_lower(a, rate * tau)
        pi = pi1
    else:
        rate = beta + lam
        log_norm = cs.gammaln(a) + _log_reg_inc_gamma_upper(a, rate * tau)
        pi = pi2
    if pi == 0.0:
        return 0.0
    logpdf = (
        math.log(pi)
        + a * math.log(rate)
        - log_norm
        + (a - 1.0) * math.log(x)
        - rate * x
    )
    return math.exp(logpdf)


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


def likelihood_s2_star(s2_star: float, sigma_sq: float, n: int, eps2: float) -> float:
    """Exact marginal density of the noisy sample variance given sigma_sq.

    Valid while the gamma rate (n-1)/(2 sigma_sq) exceeds the noise rate
    eps2 n, which is what makes the incomplete-gamma split converge.
    """
    if sigma_sq <= 0 or n < 2 or eps2 <= 0:
        raise ValueError("need sigma_sq > 0, n >= 2, eps2 > 0")
    a = (n - 1.0) / 2.0
    big_b = (n - 1.0) / (2.0 * sigma_sq)
    lam = eps2 * n
    if not big_b > lam:
        raise ValueError(
            f"(n-1)/(2 sigma_sq) = {big_b} must exceed eps2 n = {lam}"
        )
    if s2_star <= 0:
        return 0.5 * lam * math.exp(lam * s2_star + a * math.log(big_b / (big_b + lam)))
    log_w1, log_w2 = _tgm_log_weights(a, big_b, lam, s2_star, math.inf)
    log_f = (
        math.log(lam / 2.0)
        + a * math.log(big_b)
        - cs.gammaln(a)
        + np.logaddexp(log_w1, log_w2)
    )
    return float(math.exp(log_f))


def laplace_gauss_marginal(ybar_star, mu, sigma_sq, n, eps1):
    """Marginal density of the noisy sample mean given (mu, sigma_sq), on arrays.

    The Laplace-normal convolution in closed form: with d = ybar_star - mu,
    s^2 = sigma_sq / n and lam = eps1 n it is (lam/2) exp(lam^2 s^2 / 2)
    [e^(-lam d) Phi(d/s - lam s) + e^(lam d) Phi(-d/s - lam s)], summed in
    log space.  Symmetric in d.  The grid oracles below evaluate it on
    whole (mu, sigma_sq) grids.
    """
    lam = eps1 * n
    s = np.sqrt(sigma_sq / n)
    d = np.asarray(ybar_star) - mu
    t1 = -lam * d + sc.log_ndtr(d / s - lam * s)
    t2 = lam * d + sc.log_ndtr(-d / s - lam * s)
    return 0.5 * lam * np.exp(0.5 * lam * lam * s * s + np.logaddexp(t1, t2))


def likelihood_ybar_star_quadrature(ybar_star: float, mu: float, sigma_sq: float, n: int,
                                    eps1: float) -> float:
    """Marginal density of the noisy sample mean given (mu, sigma_sq).

    Computed by adaptive quadrature over the latent sample mean, split at
    the Laplace kink: the independent check of laplace_gauss_marginal.
    """
    if sigma_sq <= 0 or n < 2 or eps1 <= 0:
        raise ValueError("need sigma_sq > 0, n >= 2, eps1 > 0")
    lam = eps1 * n
    s = math.sqrt(sigma_sq / n)

    def integrand(y):
        return (0.5 * lam * math.exp(-lam * abs(ybar_star - y))
                * math.exp(-0.5 * ((y - mu) / s) ** 2) / (s * math.sqrt(2 * math.pi)))

    # The two factors can live on wildly different scales; place breakpoints
    # on both so the adaptive panels never straddle an unseen spike.
    lo = min(mu - 12.0 * s, ybar_star - 60.0 / lam)
    hi = max(mu + 12.0 * s, ybar_star + 60.0 / lam)
    cuts = {lo, hi, ybar_star, mu}
    for k in (1.0, 2.0, 4.0, 8.0):
        cuts.update((mu - k * s, mu + k * s))
    for j in (1.0, 5.0, 15.0, 45.0):
        cuts.update((ybar_star - j / lam, ybar_star + j / lam))
    edges = sorted(c for c in cuts if lo <= c <= hi)
    val = 0.0
    for a, b in zip(edges, edges[1:]):
        if b > a:
            piece, _ = integrate.quad(integrand, a, b, epsabs=1e-14,
                                      epsrel=1e-10, limit=100)
            val += piece
    return float(val)


def flat_posterior_grid_oracle(ybar_star: float, s_sq_star: float, n: int,
                               eps1: float, eps2: float,
                               n_mu: int = 400, n_sig: int = 400):
    """Posterior means of (mu, sigma_sq) under the flat unconstrained model.

    Grid quadrature of the product of the two noisy-statistic likelihoods,
    restricted to the sigma_sq region the collapsed sampler enforces.
    """
    return _posterior_grid_means(ybar_star, s_sq_star, n, eps1, eps2, None, n_mu, n_sig)


def nig_posterior_grid_oracle(ybar_star: float, s_sq_star: float, n: int,
                              eps1: float, eps2: float, mu0: float, kappa0: float,
                              nu0: float, sigma0_sq: float,
                              n_mu: int = 2000, n_sig: int = 400):
    """Posterior means of (mu, sigma_sq) under the conjugate unconstrained model.

    The flat oracle's grid weights times the normal-inverse-gamma prior
    density, all on the [0, 1] scale: mu | sigma_sq ~ N(mu0, sigma_sq/kappa0)
    contributes sigma^-1 exp(-kappa0 (mu - mu0)^2 / (2 sigma_sq)), and
    sigma_sq ~ Inv-Gamma(nu0/2, nu0 sigma0_sq/2) contributes
    sigma_sq^-(nu0/2 + 1) exp(-nu0 sigma0_sq / (2 sigma_sq)).  The default
    mu grid is finer than the flat one because the prior narrows mu to
    sd sqrt(sigma_sq/kappa0) where sigma_sq is small.
    """
    def log_prior(mu, sig2):
        return (-(nu0 + 3.0) / 2.0 * np.log(sig2)
                - (nu0 * sigma0_sq + kappa0 * (mu - mu0) ** 2) / (2.0 * sig2))

    return _posterior_grid_means(ybar_star, s_sq_star, n, eps1, eps2, log_prior, n_mu, n_sig)


def _posterior_grid_means(ybar_star, s_sq_star, n, eps1, eps2, log_prior, n_mu, n_sig):
    cap = (n - 1.0) / (2.0 * n * eps2)
    spread = np.sqrt(max(s_sq_star, 1e-4) / n) + 1.0 / (eps1 * n)
    mus = np.linspace(ybar_star - 9 * spread, ybar_star + 9 * spread, n_mu)
    sig2s = np.geomspace(1e-6, cap * (1 - 1e-9), n_sig)

    f_s2 = np.array([likelihood_s2_star(s_sq_star, float(v), n, eps2) for v in sig2s])
    f_yb = laplace_gauss_marginal(mus[:, None], ybar_star, sig2s[None, :], n, eps1)
    w = f_yb * f_s2[None, :]
    if log_prior is not None:
        lp = log_prior(mus[:, None], sig2s[None, :])
        w *= np.exp(lp - lp.max())
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


def kde_mode_reference(samples) -> float:
    """kde_mode without the screen: the exact kernel sum at all 512 grid points."""
    x = np.asarray(samples, dtype=float)
    if x.size < 30:
        raise ValueError("kde_mode needs at least 30 samples")
    bw = _silverman_bandwidth(x)
    if bw == 0.0 or not math.isfinite(bw):
        return float(x[0])
    grid = np.linspace(x.min() - 3.0 * bw, x.max() + 3.0 * bw, _GRID_SIZE)
    dens = np.zeros(_GRID_SIZE)
    inv = 1.0 / bw
    for start in range(0, x.size, _KDE_CHUNK):
        chunk = x[start:start + _KDE_CHUNK]
        z = (grid[:, None] - chunk[None, :]) * inv
        dens += np.exp(-0.5 * z * z).sum(axis=1)
    return float(grid[int(np.argmax(dens))])  # argmax: lowest grid point on ties


def moments_swap_update(ybar: float, s_sq: float, old_yi: float, new_yi: float,
                        n: int) -> tuple[float, float]:
    """Mean/variance of the dataset after replacing one value, in O(1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    delta = (new_yi - old_yi) / n
    ybar_new = ybar + delta
    # (n-1) s_sq = sum y^2 - n ybar^2; track the change in both terms.
    sq_change = new_yi * new_yi - old_yi * old_yi
    s_sq_new = s_sq + (sq_change - n * delta * (ybar_new + ybar)) / (n - 1.0)
    return ybar_new, max(s_sq_new, 0.0)


def mh_accept_prob(ybar_prev: float, ybar_prop: float, s2_prev: float,
                   s2_prop: float, release_unit) -> float:
    """Acceptance probability for one latent-value swap.

    r = min(1, exp[-eps1 n (|ybar* - ybar'| - |ybar* - ybar|)
                  - eps2 n (|s2* - s2'| - |s2* - s2|)]).
    """
    n = release_unit.n
    e1 = release_unit.budget.eps1 * n
    e2 = release_unit.budget.eps2 * n
    ystar = release_unit.ybar_star
    sstar = release_unit.s_sq_star
    expo = (-e1 * (abs(ystar - ybar_prop) - abs(ystar - ybar_prev))
            - e2 * (abs(sstar - s2_prop) - abs(sstar - s2_prev)))
    if expo >= 0.0:
        return 1.0
    return math.exp(expo)


def augmented_sweep_reference(state, release_unit, prior, constrained, rng) -> int:
    """augmented_sweep one latent at a time: propose, then accept or reject.

    Per latent it draws the proposal and, when r < 1, the uniform, so its
    stream interleaves the two; the statistical law is that of
    augmented_sweep.
    """
    n = release_unit.n
    y = state.y
    ybar, s_sq = state.ybar, state.s_sq
    mu = draw_mu(ybar, state.sigma_sq, n, prior, constrained, rng)
    sigma_sq = draw_sigma_sq(mu, ybar, s_sq, n, prior, constrained, None, rng)
    state.mu, state.sigma_sq = mu, sigma_sq
    sd = math.sqrt(sigma_sq)
    accepted = 0
    for i in range(n):
        if constrained:
            prop = sample_trunc_normal(mu, sd, 0.0, 1.0, rng)
        else:
            prop = mu + sd * rng.standard_normal()
        yb_new, s2_new = moments_swap_update(ybar, s_sq, float(y[i]), prop, n)
        r = mh_accept_prob(ybar, yb_new, s_sq, s2_new, release_unit)
        if r >= 1.0 or rng.random() < r:
            y[i] = prop
            ybar, s_sq = yb_new, s2_new
            accepted += 1
    state.ybar, state.s_sq = ybar, s_sq
    return accepted


def collapsed_joint_draws(size: int, n: int, eps2: float, prior, constrained: bool,
                          rng) -> dict:
    """Independent draws of (mu, sigma_sq, ybar, s_sq) from the collapsed sampler's joint.

    Rejection from the prior times the data model ybar ~ N(mu, sigma_sq/n),
    s_sq ~ Gamma((n-1)/2, rate (n-1)/(2 sigma_sq)), keeping draws with
    sigma_sq < (n-1)/(2 n eps2) and, in constrained mode, a feasible
    population and sample pair.  prior is on [0, 1].  The flat prior is
    proper only in constrained mode, where (mu, sigma_sq) is drawn uniformly
    from [0, 1] x [0, 1/4] before the feasibility check.
    """
    flat = prior.kind == "flat"
    if flat and not constrained:
        raise ValueError("the flat prior has no joint to draw from unless constrained")
    cap = (n - 1.0) / (2.0 * n * eps2)
    keep = {k: [] for k in ("mu", "sigma_sq", "ybar", "s_sq")}
    got = 0
    while got < size:
        m = 4 * (size - got) + 1000
        if flat:
            mu, sigma_sq = rng.random(m), 0.25 * rng.random(m)
        else:
            sigma_sq = 1.0 / rng.gamma(prior.nu0 / 2.0, 2.0 / (prior.nu0 * prior.sigma0_sq), m)
            mu = prior.mu0 + np.sqrt(sigma_sq / prior.kappa0) * rng.standard_normal(m)
        ybar = mu + np.sqrt(sigma_sq / n) * rng.standard_normal(m)
        s_sq = rng.gamma((n - 1.0) / 2.0, 2.0 * sigma_sq / (n - 1.0))
        ok = sigma_sq < cap
        if constrained:
            ok &= (mu >= 0.0) & (mu <= 1.0) & (sigma_sq <= mu * (1.0 - mu))
            ok &= (ybar >= 0.0) & (ybar <= 1.0) & (s_sq <= n / (n - 1.0) * ybar * (1.0 - ybar))
        for k, v in zip(keep, (mu, sigma_sq, ybar, s_sq)):
            keep[k].append(v[ok])
        got += int(ok.sum())
    return {k: np.concatenate(v)[:size] for k, v in keep.items()}


def successive_conditional_draws(step, start: dict, steps: int, n: int, eps1: float,
                                 eps2: float, rng) -> dict:
    """Geweke's successive-conditional simulator for the collapsed sampler.

    From start (one joint draw of mu, sigma_sq, ybar, s_sq), it draws
    omega_sq ~ Exp(rate eps1^2 n^2 / 2), then alternates: regenerate the
    release, ybar_star ~ N(ybar, omega_sq) and s_sq_star ~
    Laplace(s_sq, 1/(eps2 n)), from the state; then call
    step(state, release_unit) for one sweep.  If the sweep leaves the
    joint invariant, the states are draws from it (Geweke, "Getting it
    right", JASA 99, 2004).  Returns the states of every sweep.
    """
    budget = Budget(eps1, eps2)
    state = GibbsState(mu=start["mu"], sigma_sq=start["sigma_sq"], ybar=start["ybar"],
                       s_sq=start["s_sq"],
                       omega_sq_inv=eps1 * eps1 * n * n / (2.0 * rng.standard_exponential()))
    z = rng.standard_normal(steps)
    lap = rng.laplace(0.0, 1.0 / (eps2 * n), steps)
    out = np.empty((4, steps))
    for t in range(steps):
        rel = PrivateRelease(ybar_star=state.ybar + z[t] / math.sqrt(state.omega_sq_inv),
                             s_sq_star=state.s_sq + lap[t], n=n, budget=budget, bounds=UNIT)
        state = step(state, rel)
        out[:, t] = state.mu, state.sigma_sq, state.ybar, state.s_sq
    return dict(zip(("mu", "sigma_sq", "ybar", "s_sq"), out))


def gibbs_step_reference(state: GibbsState, release_unit, prior, mode: ConstraintMode,
                         rng) -> GibbsState:
    """One full sweep in the order mu, sigma_sq, ybar, s_sq, omega_sq_inv."""
    n = release_unit.n
    eps1 = release_unit.budget.eps1
    lam = release_unit.budget.eps2 * n
    ybar_star = release_unit.ybar_star
    constrained = mode is ConstraintMode.MOMENT_CONSTRAINED

    mu = draw_mu(state.ybar, state.sigma_sq, n, prior, constrained, rng)
    sigma_sq = draw_sigma_sq(mu, state.ybar, state.s_sq, n, prior, constrained, lam, rng)
    window = mean_window(min((n - 1.0) / n * state.s_sq, 0.25)) if constrained else None
    ybar = draw_ybar(mu, sigma_sq, state.s_sq, state.omega_sq_inv,
                     state.omega_sq_inv + n / sigma_sq, ybar_star, n, window, rng)

    # --- s_sq ---
    upper = n / (n - 1.0) * ybar * (1.0 - ybar) if constrained else math.inf
    s_sq = sample_tgm((n - 1.0) / 2.0, (n - 1.0) / (2.0 * sigma_sq), lam,
                      release_unit.s_sq_star, upper, rng)

    # --- omega_sq_inv ---
    diff = abs(ybar_star - ybar)
    if diff < _ABS_DIFF_FLOOR:
        diff = _ABS_DIFF_FLOOR
    omega_sq_inv = sample_inverse_gaussian(eps1 * n / diff, eps1 * eps1 * n * n, rng)

    return GibbsState(mu=mu, sigma_sq=sigma_sq, ybar=ybar, s_sq=s_sq,
                      omega_sq_inv=omega_sq_inv)
