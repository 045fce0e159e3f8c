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
uniforms, in that order, then scans the latents once in ascending order.
The scan is evaluated in two passes.  Each swap's log acceptance ratio has
a lower bound that holds whatever the earlier swaps did (_swap_bounds);
one numpy pass commits every swap whose uniform is below exp(-bound)
through prefix sums of the moment changes, and a Python loop decides the
remaining swaps in order against the exact moments, rebuilt from those
sums.  Up to the rounding of the moments, the accepted set is that of the
one-latent-at-a-time scan.

The (mu, sigma_sq) conditionals are gibbs.draw_mu and gibbs.draw_sigma_sq,
without the collapsed sampler's TGM floor and cap on sigma_sq; draw_mu
truncates mu to its window through the collapsed sampler's one
window-truncated mean draw.  This module owns only the latent-value moves.
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

    The cache must track the exact moments of ``y``; a sweep rebuilds it
    from the sums of its accepted moment changes, and run_augmented_chain
    recomputes and refreshes it every 1,000 accepted swaps.  ybar and s_sq
    are Python floats: the scan's loop does scalar arithmetic on them, which
    is several times slower on np.float64.
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


def _swap_bounds(step: np.ndarray, w: np.ndarray, n: int, eps1: float,
                 eps2: float) -> np.ndarray:
    """bound_i >= 0 with swap i's log acceptance ratio >= -bound_i, whatever
    the earlier swaps of the scan did.

    step = (props - y)/n and w = props + y - 2 ybar, with y and ybar as the
    scan starts.  Swap i moves ybar by step_i and s_sq by n step_i (w_i - 2 t
    - step_i)/(n - 1), where t sums the earlier accepted steps; |2 t - C_i|
    <= A_i, with C_i and A_i the sums of step_j and |step_j| over j < i.  So
    bound_i = eps1 n |step_i| + eps2 n^2/(n - 1) |step_i| (|w_i - C_i| + A_i
    + |step_i|).
    """
    a = np.abs(step)
    return a * (eps1 * n + eps2 * n * n / (n - 1.0) * (np.abs(w - step.cumsum() + step)
                                                     + a.cumsum()))


def augmented_sweep(state: AugmentedState, release_unit: PrivateRelease,
                    prior: PriorSpec, constrained: bool, rng: Generator) -> int:
    """One in-place sweep; returns the number of accepted swaps.

    Swap i, to proposal i, is accepted when uniform i is below exp[-eps1 n
    (|ybar* - ybar'| - |ybar* - ybar|) - eps2 n (|s2* - s2'| - |s2* - s2|)],
    with the moments before and after the swap.  Swaps whose uniform is
    below exp(-bound_i) are accepted without computing the ratio.
    """
    n = release_unit.n
    ybar, s_sq = state.ybar, state.s_sq
    mu = draw_mu(ybar, state.sigma_sq, n, prior, constrained, rng)
    sigma_sq = draw_sigma_sq(mu, ybar, s_sq, n, prior, constrained, None, rng)
    state.mu, state.sigma_sq = mu, sigma_sq

    sd = math.sqrt(sigma_sq)
    props = (sample_trunc_normal_block(mu, sd, 0.0, 1.0, n, rng) if constrained
             else mu + sd * rng.standard_normal(n))

    # -- latent values: commit the swaps the bound accepts, then scan the rest --
    y, u, budget, k = state.y, rng.random(n), release_unit.budget, n / (n - 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        # An inf or NaN bound or increment only sends a swap to the exact scan.
        step, w = (props - y) / n, props + y - 2.0 * ybar
        sv = np.array((step, k * step * w))  # v: s_sq increment, mean held at ybar
        bound = _swap_bounds(step, w, n, budget.eps1, budget.eps2)
        accept = (u < np.exp(-bound)) & np.isfinite(sv[1])
    bulk = np.where(accept, sv, 0.0).cumsum(axis=1)

    # Before swap i, ybar has moved by t and s_sq = s - k t^2: t sums the
    # earlier accepted steps and s adds their increments to s_sq, the bulk ones
    # from the prefix sums and the scanned ones from t_scan and s_scan.
    neg_e1, e2 = -budget.eps1 * n, budget.eps2 * n
    c1, sstar = release_unit.ybar_star - ybar, release_unit.s_sq_star
    exp, taken, t_scan, s_scan = math.exp, [], 0.0, s_sq
    rest = (~accept).nonzero()[0]
    for i, si, vi, t, s, ui in zip(rest.tolist(), *sv[:, rest].tolist(), *bulk[:, rest].tolist(),
                                   u[rest].tolist()):
        t += t_scan
        s += s_scan
        a = t + si
        expo = (neg_e1 * (abs(c1 - a) - abs(c1 - t))
                - e2 * (abs(sstar - s - vi + k * a * a) - abs(sstar - s + k * t * t)))
        if expo >= 0.0 or ui < exp(expo):
            t_scan += si
            s_scan += vi
            taken.append(i)
    accept[taken] = True
    y[accept] = props[accept]
    t = float(bulk[0, -1]) + t_scan
    state.ybar, state.s_sq = ybar + t, max(float(bulk[1, -1]) + s_scan - k * t * t, 0.0)
    return int(np.count_nonzero(accept))


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
