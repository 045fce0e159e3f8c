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

A scan moves one latent at a time, so it moves the latents' spread and
location only slowly when the release pins ybar and s_sq.  After the scan,
group_moves takes two group moves (Liu & Sabatti, Biometrika 87, 2000),
scale and shift, each by one slice step (gibbs._slice_step, which the
collapsed sampler's scale move also takes), then draws sigma_sq again.  It
starts from the latents' exact moments, so the cached moments never carry
error from one sweep to the next, and it checks the scan's cache against
them.

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
    _SLICE_WIDTH,
    PosteriorDraws,
    PriorSpec,
    SamplerConfig,
    _slice_step,
    check_config,
    clamped_release,
    draw_mu,
    draw_sigma_sq,
    slice_width,
)
from .release import PrivateRelease

_DRIFT_TOL = 1e-8  # largest error of the cached moments that a sweep's scan may leave


@dataclass
class AugmentedState:
    """Latent data vector plus cached sample moments.

    The cache must track the exact moments of ``y``; the scan rebuilds it
    from the sums of its accepted moment changes, and group_moves recomputes
    it from ``y`` and moves it in closed form.  ybar and s_sq
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


def _scale_log_ratio(x: float, p: tuple) -> float:
    """log target at the scale move's image under c = e^x over the target at the state.

    The image has c sigma_sq and the latents mu + sqrt(c) (y - mu), so ybar_c = ybar sqrt(c)
    + off and c s_sq, with off = mu - mu sqrt(c).  The prior, the n normal densities (c^-n/2)
    and the Jacobian c^(1 + n/2) give c^power e^(-rate (e^-x - 1)); then the two Laplace
    terms, each 0 where its distance does not change (else inf * 0 at an infinite eps n).
    In constrained mode, -inf unless c sigma_sq <= mu (1 - mu) and the latents' images
    min(y) sqrt(c) + off and max(y) sqrt(c) + off lie in [0, 1].
    """
    power, rate, mu, sigma_sq, cap, lo, hi, ybar, s_sq, e1, ybar_star, gap1, e2, s_sq_star, \
        gap2 = p
    c = math.exp(x)
    if c == 1.0:  # the state, so that shrinkage ends once |x| rounds c to 1
        return 0.0
    root = math.sqrt(c)
    off = mu - mu * root
    if cap is not None and not (c * sigma_sq <= cap and lo * root + off >= 0.0
                                and hi * root + off <= 1.0):
        return -math.inf
    d1 = abs(ybar_star - (ybar * root + off)) - gap1
    d2 = abs(s_sq_star - c * s_sq) - gap2
    return power * x - rate * math.expm1(-x) - (d1 and e1 * d1) - (d2 and e2 * d2)


def _shift_log_ratio(d: float, p: tuple) -> float:
    """log target at the shift move's image, mu + d and the latents y + d, over the target
    at the state.

    The normal densities and s_sq do not move; the prior N(mu | mu0, sigma_sq/kappa0) and
    the ybar Laplace term do, the latter 0 where ybar + d rounds to ybar.  In constrained
    mode, -inf unless sigma_sq <= (mu + d)(1 - mu - d) and the latents' images
    lo + (off + d) and hi + (off + d) lie in [0, 1].
    """
    if d == 0.0:
        return 0.0
    mu, lean, half_prec, sigma_sq, constrained, lo, hi, off, ybar, e1, ybar_star, gap1 = p
    m = mu + d
    if constrained and not (sigma_sq <= m * (1.0 - m)
                            and lo + (off + d) >= 0.0 and hi + (off + d) <= 1.0):
        return -math.inf
    d1 = abs(ybar_star - (ybar + d)) - gap1
    return -half_prec * d * (2.0 * lean + d) - (d1 and e1 * d1)


def move_constants(release_unit: PrivateRelease, prior: PriorSpec) -> tuple:
    """What group_moves reads of the release and prior."""
    n, budget = release_unit.n, release_unit.budget
    e1, e2 = budget.eps1 * n, budget.eps2 * n
    power = 1.0 - (prior.nu0 / 2.0 + 1.5)  # the Jacobian's c, the prior's c^-(nu0/2 + 3/2)
    return (n, e1, e2, release_unit.ybar_star, release_unit.s_sq_star, power,
            prior.nu0 * prior.sigma0_sq, prior.kappa0, prior.mu0,
            slice_width(e2 * clamped_release(release_unit)[1], _SLICE_WIDTH),
            slice_width(e1, 1.0))


def group_moves(state: AugmentedState, release_unit: PrivateRelease, prior: PriorSpec,
                constrained: bool, rng: Generator, consts: tuple | None = None) -> None:
    """The scale move, the shift move, then sigma_sq | mu, y again; in place.

    Group moves (Liu & Sabatti, Biometrika 87, 2000) along the two directions that the
    latents cannot take one at a time.  Scale: sigma_sq times c and each latent times
    sqrt(c) about mu, with log c from one slice step of width min(4, 8/(eps2 n s*)).
    Shift: mu and every latent plus d, with d from one slice step of width
    min(1, 8/(eps1 n)).  Each log ratio costs O(1): ybar and s_sq move in closed form
    and the bounds need only min(y) and max(y).  The latents then take one update,
    y sqrt(c) + off, in the arithmetic of the bound checks, so constrained latents stay
    in [0, 1] exactly.  The moves start from the latents' exact moments, and raise
    NumericalError if the cached ones are further than _DRIFT_TOL from them.

    consts is move_constants(release_unit, prior), which run_augmented_chain computes once.
    """
    n, e1, e2, ybar_star, s_sq_star, power, nu0_sigma0_sq, kappa0, mu0, scale_width, \
        shift_width = consts or move_constants(release_unit, prior)
    y, mu, sigma_sq = state.y, state.mu, state.sigma_sq
    # A non-finite s_sq reads as drift, and a non-finite latent fails the next sweep.
    with np.errstate(over="ignore", invalid="ignore"):
        ybar = float(y.sum()) / n
        dev = y - ybar
        s_sq = float(dev @ dev) / (n - 1.0)
        drift = max(abs(ybar - state.ybar), abs(s_sq - state.s_sq))
        if not drift <= _DRIFT_TOL:  # NaN included
            raise NumericalError(f"cached moments drifted by {drift} (> {_DRIFT_TOL})")
        lo, hi = (float(y.min()), float(y.max())) if constrained else (0.0, 0.0)
        lean = mu - mu0 if kappa0 else 0.0

        p = (power, (nu0_sigma0_sq + kappa0 * lean * lean) / (2.0 * sigma_sq), mu, sigma_sq,
             mu * (1.0 - mu) if constrained else None, lo, hi, ybar, s_sq, e1, ybar_star,
             abs(ybar_star - ybar), e2, s_sq_star, abs(s_sq_star - s_sq))
        c = math.exp(_slice_step(_scale_log_ratio, p, scale_width, rng))
        root = math.sqrt(c)
        off = mu - mu * root
        sigma_sq, s_sq, ybar = c * sigma_sq, c * s_sq, ybar * root + off

        p = (mu, lean, kappa0 / (2.0 * sigma_sq), sigma_sq, constrained, lo * root, hi * root,
             off, ybar, e1, ybar_star, abs(ybar_star - ybar))
        d = _slice_step(_shift_log_ratio, p, shift_width, rng)
        y *= root
        y += off + d
    state.mu, state.ybar, state.s_sq = mu + d, ybar + d, s_sq
    state.sigma_sq = draw_sigma_sq(state.mu, state.ybar, s_sq, n, prior, constrained, None, rng)


def run_augmented_chain(release: PrivateRelease, constrained: bool,
                        config: SamplerConfig,
                        prior: PriorSpec = PriorSpec.flat()) -> PosteriorDraws:
    """Run the latent-value sampler; draws are on the [0, 1] scale.

    A sweep is augmented_sweep (mu, sigma_sq, the latent scan), then
    group_moves (the scale move, the shift move, sigma_sq again).
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
    consts = move_constants(release_unit, prior_unit)

    def sweep(t):
        augmented_sweep(state, release_unit, prior_unit, constrained, rng)
        group_moves(state, release_unit, prior_unit, constrained, rng, consts)
        return state.mu, state.sigma_sq, state.ybar, state.s_sq

    mu, sigma_sq, ybar, s_sq = config.record(sweep, 4)
    return PosteriorDraws(mu=mu, sigma_sq=sigma_sq, ybar=ybar, s_sq=s_sq,
                          omega_sq_inv=None, config=config)
