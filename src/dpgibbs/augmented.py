"""Data-augmented Gibbs sampler that carries the n latent values explicitly.

Each sweep first updates (mu, sigma_sq) from their public-setting
conditionals (truncated to the feasible parameter region in constrained
mode), then Metropolis-updates every latent value with an independence
proposal from the current data model; in constrained mode the proposal
is a truncated normal on the data bounds, which is distributionally
identical to rejecting out-of-bounds proposals but has bounded runtime.
The acceptance probability only involves the released-statistic Laplace
factors because the proposal cancels the data-model term.

Per-sweep cost is linear in n, unlike the collapsed sampler.  A sweep
draws mu, sigma_sq, the n proposals as one block and n acceptance
uniforms, in that order, then scans the latents once in Python floats.

The (mu, sigma_sq) conditionals are gibbs.draw_mu and gibbs.draw_sigma_sq,
without the collapsed sampler's TGM floor and cap on sigma_sq; this
module owns only the latent-value moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .distributions import sample_trunc_normal_block
# Not called here: kept so that perfbench/layers.py can rebind them.
from .distributions import sample_trunc_gamma, sample_trunc_normal  # noqa: F401
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


def _init_augmented(release_unit: PrivateRelease, rng: Generator) -> AugmentedState:
    mu, sigma_sq = clamped_release(release_unit)
    y = sample_trunc_normal_block(mu, math.sqrt(sigma_sq), 0.0, 1.0, release_unit.n, rng)
    return AugmentedState(mu=mu, sigma_sq=sigma_sq, y=y,
                          ybar=float(y.mean()), s_sq=float(y.var(ddof=1)))


def augmented_sweep(state: AugmentedState, release_unit: PrivateRelease,
                    prior: PriorSpec, constrained: bool, rng: Generator) -> int:
    """One in-place sweep; returns the number of accepted swaps.

    Swap i, to proposal i, is accepted when uniform i is below exp[-eps1 n
    (|ybar* - ybar'| - |ybar* - ybar|) - eps2 n (|s2* - s2'| - |s2* - s2|)].
    """
    n = release_unit.n
    ybar, s_sq = state.ybar, state.s_sq
    mu = draw_mu(ybar, state.sigma_sq, n, prior, constrained, rng)
    sigma_sq = draw_sigma_sq(mu, ybar, s_sq, n, prior, constrained, None, rng)
    state.mu, state.sigma_sq = mu, sigma_sq

    sd = math.sqrt(sigma_sq)
    props = (sample_trunc_normal_block(mu, sd, 0.0, 1.0, n, rng) if constrained
             else mu + sd * rng.standard_normal(n))

    # -- latent values, fixed ascending scan --
    ys = state.y.tolist()
    nf, n_minus_1 = float(n), n - 1.0
    neg_e1, e2 = -release_unit.budget.eps1 * nf, release_unit.budget.eps2 * nf
    ystar, sstar = release_unit.ybar_star, release_unit.s_sq_star
    exp = math.exp
    dist1, dist2 = abs(ystar - ybar), abs(sstar - s_sq)
    accepted = 0
    for i, (prop, u) in enumerate(zip(props.tolist(), rng.random(n).tolist())):
        old = ys[i]
        delta = (prop - old) / nf
        yb_new = ybar + delta
        s2_new = s_sq + (prop * prop - old * old - nf * delta * (yb_new + ybar)) / n_minus_1
        if s2_new < 0.0:
            s2_new = 0.0
        d1, d2 = abs(ystar - yb_new), abs(sstar - s2_new)
        expo = neg_e1 * (d1 - dist1) - e2 * (d2 - dist2)
        if expo >= 0.0 or u < exp(expo):
            ys[i] = prop
            ybar, s_sq, dist1, dist2 = yb_new, s2_new, d1, d2
            accepted += 1
    state.y[:] = ys
    state.ybar, state.s_sq = ybar, s_sq
    return accepted


def run_augmented_chain(release: PrivateRelease, constrained: bool,
                        config: SamplerConfig,
                        prior: PriorSpec = PriorSpec.flat()) -> PosteriorDraws:
    """Run the latent-value sampler; draws are on the [0, 1] scale.

    Constrained mode keeps every latent value inside the bounds and
    (mu, sigma_sq) inside the feasible parameter region.  The moves leave
    invariant prior x 1{sigma_sq <= mu (1 - mu)} x prod_i N(y_i | mu,
    sigma_sq) 1{y_i in [0, 1]} x the Laplace noise terms, which tilts the
    prior on (mu, sigma_sq) by Z(mu, sigma)^n with Z = Phi((1 - mu) / sigma)
    - Phi(-mu / sigma).
    """
    check_config(release.n, release.budget, prior, False)
    release_unit, prior_unit = release.to_unit(), prior.to_unit(release.bounds)

    rng = np.random.default_rng(config.seed)
    state = _init_augmented(release_unit, rng)
    since_refresh = 0

    def sweep(t):
        nonlocal since_refresh
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
        return state.mu, state.sigma_sq, state.ybar, state.s_sq

    mu, sigma_sq, ybar, s_sq = config.record(sweep, 4)
    return PosteriorDraws(mu=mu, sigma_sq=sigma_sq, ybar=ybar, s_sq=s_sq,
                          omega_sq_inv=None, config=config)
