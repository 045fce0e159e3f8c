"""Data-augmented Gibbs sampler that carries the n latent values explicitly.

Each sweep first updates (mu, sigma_sq) from their public-setting
conditionals (truncated to the feasible parameter region in constrained
mode), then Metropolis-updates every latent value with an independence
proposal from the current data model; in constrained mode the proposal
is a truncated normal on the data bounds, which is distributionally
identical to rejecting out-of-bounds proposals but has bounded runtime.
The acceptance probability only involves the released-statistic Laplace
factors because the proposal cancels the data-model term.

Per-sweep cost is linear in n, unlike the collapsed sampler.

The (mu, sigma_sq) conditionals are gibbs.draw_mu and gibbs.draw_sigma_sq,
without the collapsed sampler's TGM floor and cap on sigma_sq; this
module owns only the latent-value moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .distributions import sample_trunc_normal
# Not called here: kept so that perfbench/layers.py can rebind it.
from .distributions import sample_trunc_gamma  # noqa: F401
from .errors import NumericalError
from .gibbs import (
    PosteriorDraws,
    PriorSpec,
    SamplerConfig,
    check_config,
    clamped_release,
    draw_mu,
    draw_sigma_sq,
)
from .release import PrivateRelease

_REFRESH_EVERY = 1000  # accepted swaps between cache integrity checks
_DRIFT_TOL = 1e-8


@dataclass
class AugmentedState:
    """Latent data vector plus cached sample moments.

    The cache must track the exact moments of ``y``; run_augmented_chain
    recomputes and refreshes it every 1,000 accepted swaps.
    """

    mu: float
    sigma_sq: float
    y: np.ndarray
    ybar: float
    s_sq: float


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
                   s2_prop: float, release_unit: PrivateRelease) -> float:
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


def _init_augmented(release_unit: PrivateRelease, rng: Generator) -> AugmentedState:
    n = release_unit.n
    mu, sigma_sq = clamped_release(release_unit)
    sd = math.sqrt(sigma_sq)
    y = np.empty(n)
    for i in range(n):
        y[i] = sample_trunc_normal(mu, sd, 0.0, 1.0, rng)
    return AugmentedState(mu=mu, sigma_sq=sigma_sq, y=y,
                          ybar=float(y.mean()), s_sq=float(y.var(ddof=1)))


def augmented_sweep(state: AugmentedState, release_unit: PrivateRelease,
                    prior: PriorSpec, constrained: bool, rng: Generator) -> int:
    """One in-place sweep; returns the number of accepted swaps."""
    n = release_unit.n
    y = state.y
    ybar, s_sq = state.ybar, state.s_sq
    mu = draw_mu(ybar, state.sigma_sq, n, prior, constrained, rng)
    sigma_sq = draw_sigma_sq(mu, ybar, s_sq, n, prior, constrained, None, rng)
    state.mu, state.sigma_sq = mu, sigma_sq

    # -- latent values, fixed ascending scan --
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


def run_augmented_chain(release: PrivateRelease, constrained: bool,
                        config: SamplerConfig,
                        prior: PriorSpec = PriorSpec.flat()) -> PosteriorDraws:
    """Run the latent-value sampler; draws are on the [0, 1] scale.

    Constrained mode keeps every latent value inside the bounds and
    (mu, sigma_sq) inside the feasible parameter region, with the flat
    prior read as proper and uniform over that region.
    """
    check_config(release.n, release.budget.eps2, prior, False)
    release_unit, prior_unit = release.to_unit(), prior.to_unit(release.bounds)

    rng = np.random.default_rng(config.seed)
    state = _init_augmented(release_unit, rng)
    kept = config.kept
    mu = np.empty(len(kept))
    sigma_sq = np.empty(len(kept))
    ybar = np.empty(len(kept))
    s_sq = np.empty(len(kept))

    k = 0
    since_refresh = 0
    for t in range(config.iters):
        since_refresh += augmented_sweep(state, release_unit, prior_unit,
                                         constrained, rng)
        if since_refresh >= _REFRESH_EVERY:
            exact_ybar = float(state.y.mean())
            exact_s_sq = float(state.y.var(ddof=1))
            drift = max(abs(exact_ybar - state.ybar), abs(exact_s_sq - state.s_sq))
            if drift > _DRIFT_TOL:
                raise NumericalError(
                    f"cached moments drifted by {drift} (> {_DRIFT_TOL})"
                )
            state.ybar, state.s_sq = exact_ybar, exact_s_sq
            since_refresh = 0
        if t in kept:
            mu[k] = state.mu
            sigma_sq[k] = state.sigma_sq
            ybar[k] = state.ybar
            s_sq[k] = state.s_sq
            k += 1
    return PosteriorDraws(mu=mu, sigma_sq=sigma_sq, ybar=ybar, s_sq=s_sq,
                          omega_sq_inv=None, config=config)
