"""Exact Gibbs sampler for (mu, sigma_sq) given a noisy mean/variance release.

The sampler works on the [0, 1] scale.  Its target is the joint
prior(mu, sigma_sq) 1{sigma_sq < (n-1)/(2 n eps2)} N(ybar | mu, sigma_sq/n)
Gamma(s_sq | (n-1)/2, (n-1)/(2 sigma_sq)) times the noise terms
N(ybar_star | ybar, omega_sq) Exp(omega_sq | eps1^2 n^2/2)
Laplace(s_sq_star | s_sq, 1/(n eps2)); the cap keeps the s_sq conditional
a valid truncated gamma mixture.  Constrained mode multiplies in
1{pair and stats feasible}, so there the prior on (mu, sigma_sq) is tilted
by P(stats feasible | mu, sigma_sq).  Each move below leaves this joint
invariant.  One sweep, in this order:

  mu, ybar  one block: mu with ybar integrated out, the prior times
            N(ybar_star | mu, sigma_sq/n + omega_sq); in constrained mode an
            independence Metropolis step from that normal on the mu-window,
            accepted by the ratio of P(ybar in its window | mu).  Then
            ybar | mu, normal, truncated to its window if constrained;
  sigma_sq  inverse gamma below the cap, and below mu (1 - mu) if constrained;
  scale     group move (Liu & Sabatti, Biometrika 87, 2000): sigma_sq and s_sq
            times c along their ridge (Yu & Meng, JCGS 20, 2011), and under the
            conjugate prior, which ties mu - mu0 to sigma, also mu - mu0 and
            ybar - mu0 times sqrt(c); one slice step on log c (Neal, Ann. Statist.
            31, 2003): one interval of width w = min(4, 8/(eps2 n s*)), 4 w under
            the conjugate prior, placed at random around 0, then shrinkage;
  s_sq      TGM((n-1)/2, (n-1)/(2 sigma_sq), n eps2, s_sq_star), capped at
            n/(n-1) ybar (1 - ybar) if constrained;
  1/omega_sq inverse Gaussian with mean eps1 n / |ybar_star - ybar|.

Per-sweep cost does not depend on n; run_chain feeds every draw from one
UniformBlock per chain.  This module owns the mu and sigma_sq conditionals
(draw_mu, draw_sigma_sq), which the latent-value sampler in augmented.py
shares; only the collapsed sampler adds the TGM floor and cap on sigma_sq.
Feasibility windows come from feasible.py, variate kernels from
distributions.py.  SamplerConfig.record is the one chain loop.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np
from numpy.random import Generator

from .distributions import (
    UniformBlock,
    normal_window,
    sample_inverse_gaussian,
    sample_tgm,
    sample_trunc_gamma,
    sample_trunc_normal,
)
from .errors import ConfigurationError, NumericalError, SamplingError
from .feasible import mean_window, snap_mean
from .release import Bounds, Budget, PrivateRelease

_SIGMA_SQ_FLOOR = 1e-4  # initialization floor when the released variance is <= 0
_ABS_DIFF_FLOOR = 1e-12  # |ybar_star - ybar| clamp for the inverse-Gaussian mean
_SLICE_WIDTH = 4.0  # widest slice interval on log c under the flat prior; 4 times it under nig
_SLICE_SHRINKS = 500  # shrinkage proposals before the slice step gives up


class ConstraintMode(Enum):
    UNCONSTRAINED = "unconstrained"
    MOMENT_CONSTRAINED = "constrained"


class PredictiveMode(Enum):
    PLAIN = "plain"
    TRUNCATED_PER_DRAW = "truncated"
    CLIP_AD_HOC = "clip"


@dataclass(frozen=True)
class PriorSpec:
    """Normal-inverse-gamma prior on (mu, sigma_sq), or its flat limit.

    The conjugate ("nig") prior is

        mu | sigma_sq ~ N(mu0, sigma_sq / kappa0),
        sigma_sq ~ Inv-chi^2(nu0, sigma0_sq) = Inv-Gamma(nu0/2, nu0 sigma0_sq/2),

    so p(mu, sigma_sq) is proportional to
    sigma^-1 (sigma_sq)^-(nu0/2 + 1) exp(-(nu0 sigma0_sq + kappa0 (mu - mu0)^2) / (2 sigma_sq)),
    with finite mu0 and finite positive kappa0, nu0, sigma0_sq.  The flat prior
    p(mu, sigma_sq) proportional to 1 is the limit kappa0 = 0, nu0 = -3,
    sigma0_sq = 0 of that density (Gelman et al., Bayesian Data Analysis,
    3rd ed., sections 3.2-3.3); those are the defaults, and a "flat" spec
    with any other kappa0, nu0 or sigma0_sq is rejected.  At kappa0 = 0
    mu0 carries no weight, so a flat spec takes any finite mu0.

    Hyperparameters are given on the original data scale and are
    rescaled internally together with the release.
    """

    kind: str  # "flat" | "nig"
    mu0: float = 0.0
    kappa0: float = 0.0
    nu0: float = -3.0
    sigma0_sq: float = 0.0

    def __post_init__(self):
        if self.kind == "flat":
            if (self.kappa0, self.nu0, self.sigma0_sq) != (0.0, -3.0, 0.0):
                raise ValueError("the flat prior has kappa0 = 0, nu0 = -3, sigma0_sq = 0")
        elif self.kind == "nig":
            if not all(0.0 < v < math.inf for v in (self.kappa0, self.nu0, self.sigma0_sq)):
                raise ValueError("conjugate prior needs finite positive kappa0, nu0, sigma0_sq")
        else:
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if not math.isfinite(self.mu0):
            raise ValueError("a prior needs a finite mu0")

    @classmethod
    def flat(cls) -> "PriorSpec":
        return cls(kind="flat")

    @classmethod
    def conjugate(cls, mu0: float, kappa0: float, nu0: float,
                  sigma0_sq: float) -> "PriorSpec":
        return cls(kind="nig", mu0=mu0, kappa0=kappa0, nu0=nu0, sigma0_sq=sigma0_sq)

    def to_unit(self, bounds: Bounds) -> "PriorSpec":
        """Rescale the location/scale hyperparameters onto [0, 1]."""
        mu0, sigma0_sq = bounds.to_unit(self.mu0, self.sigma0_sq)
        return replace(self, mu0=mu0, sigma0_sq=sigma0_sq)


@dataclass(slots=True)
class GibbsState:
    mu: float
    sigma_sq: float
    ybar: float
    s_sq: float
    omega_sq_inv: float


@dataclass(frozen=True)
class SamplerConfig:
    """Chain length controls plus the seed that fixes the whole run.

    burn_in defaults to 10% of iters; set it to 0 to mirror runs that
    keep every draw.
    """

    iters: int
    seed: int
    burn_in: int | None = None
    thin: int = 1

    def __post_init__(self):
        if self.iters <= 0:
            raise ValueError("iters must be positive")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.burn_in is not None and not 0 <= self.burn_in < self.iters:
            raise ValueError("burn_in must satisfy 0 <= burn_in < iters")

    @property
    def kept(self) -> range:
        """Iterations whose state is stored: every thin-th after burn-in."""
        burn_in = self.burn_in if self.burn_in is not None else self.iters // 10
        return range(burn_in, self.iters, self.thin)

    def record(self, sweep, width: int) -> np.ndarray:
        """Run sweep(t) for every iteration t and keep the values of the kept ones.

        sweep returns a sequence of width floats; the result holds one
        C-contiguous row per value, one column per kept iteration.  The
        values are appended to a flat array of doubles, which costs less
        per sweep than a row store into a numpy array.
        """
        kept = self.kept
        buf = array("d")
        for t in range(self.iters):
            values = sweep(t)
            if t in kept:
                buf.extend(values)
        return np.frombuffer(buf).reshape(len(kept), width).T.copy()


@dataclass(frozen=True)
class PosteriorDraws:
    """Thinned post-burn-in draws, on the [0, 1] analysis scale."""

    mu: np.ndarray
    sigma_sq: np.ndarray
    ybar: np.ndarray
    s_sq: np.ndarray
    omega_sq_inv: np.ndarray | None
    config: SamplerConfig

    def __len__(self) -> int:
        return self.mu.size


def check_config(n: int, budget: Budget, prior: PriorSpec, collapsed: bool,
                 force_sigma_constraint: bool = False):
    """Raise ConfigurationError for a run the model cannot support.

    The flat prior needs n >= 3 for a proper posterior.  The collapsed
    sampler (collapsed=True) needs (eps1 n)^2 > 0, the rate of 1/omega_sq,
    and eps2 < 2(n-1)/n for its s_sq full conditional, unless
    force_sigma_constraint imposes the cap sigma_sq < (n-1)/(2 n eps2); the
    latent-value sampler has no such limit.
    """
    eps1n, eps2 = budget.eps1 * n, budget.eps2
    if prior.kind == "flat" and n < 3:
        raise ConfigurationError("the flat prior needs n >= 3")
    if collapsed and eps1n * eps1n == 0.0:
        raise ConfigurationError(f"(eps1 n)^2 underflows to 0 at eps1 = {budget.eps1}, n = {n}")
    if collapsed and not (eps2 < 2.0 * (n - 1.0) / n or force_sigma_constraint):
        raise ConfigurationError(
            f"eps2 = {eps2} >= 2(n-1)/n = {2.0 * (n - 1.0) / n}: the bounded-data "
            "guarantee sigma_sq <= 1/4 no longer implies the rate condition of the "
            "s_sq full conditional. Re-run with force_sigma_constraint=True to impose "
            "sigma_sq < (n-1)/(2 n eps2) as an explicit modeling assumption."
        )


def clamped_release(release_unit: PrivateRelease) -> tuple[float, float]:
    """Released (mean, variance) clamped to [0, 1] and [1e-4, 1/4]."""
    return (min(max(release_unit.ybar_star, 0.0), 1.0),
            min(max(release_unit.s_sq_star, _SIGMA_SQ_FLOOR), 0.25))


def init_state(release_unit: PrivateRelease) -> GibbsState:
    """Starting point of the chain, from a [0, 1]-scale release.

    The released values are clamped into the feasible region: sigma_sq
    and s_sq to [1e-4, 1/4], ybar to [0, 1]; omega_sq starts at its prior
    mean 2/(eps1^2 n^2), stored as the inverse.
    """
    if not release_unit.bounds.is_unit:
        raise ValueError("init_state expects a release on the [0, 1] scale")
    ybar, s = clamped_release(release_unit)
    n = release_unit.n
    eps1 = release_unit.budget.eps1
    return GibbsState(
        mu=ybar,
        sigma_sq=s,
        ybar=ybar,
        s_sq=s,
        omega_sq_inv=eps1 * eps1 * n * n / 2.0,
    )


def draw_mu(ybar: float, sigma_sq: float, n: int, prior: PriorSpec,
            constrained: bool, rng: Generator) -> float:
    """mu | ybar, sigma_sq: normal, truncated to mean_window(sigma_sq) if constrained.

    The normal is N(ybar + kappa0 (mu0 - ybar)/(n + kappa0), sigma_sq/(n + kappa0)),
    which is N(ybar, sigma_sq/n) under the flat prior (kappa0 = 0).  At
    sigma_sq >= 1/4 the window is the single point 1/2, which is returned
    without consuming a draw.
    """
    mean = ybar + prior.kappa0 * (prior.mu0 - ybar) / (n + prior.kappa0)
    sd = math.sqrt(sigma_sq / (n + prior.kappa0))
    if not constrained:
        return mean + sd * rng.standard_normal()
    if sigma_sq >= 0.25:
        return 0.5
    lo, hi = mean_window(sigma_sq)
    return snap_mean(sample_trunc_normal(mean, sd, lo, hi, rng), sigma_sq, 1.0)


def draw_sigma_sq(mu: float, ybar: float, s_sq: float, n: int, prior: PriorSpec,
                  constrained: bool, tgm_lam: float | None, rng: Generator) -> float:
    """sigma_sq | mu, ybar, s_sq: inverse gamma, drawn as a gamma on 1/sigma_sq.

    The shape is (n + nu0 + 1)/2 and the rate (nu0 sigma0_sq + (n-1) s_sq
    + n (ybar - mu)^2 + kappa0 (mu - mu0)^2)/2: the conjugate prior's
    sigma^-1 from mu | sigma_sq adds the 1/2 to the shape, and under the
    flat prior the shape is (n - 2)/2.

    Constrained mode truncates to sigma_sq <= mu (1 - mu).  tgm_lam is the
    collapsed sampler's TGM noise rate eps2 n: the precision is floored at
    2 tgm_lam/(n-1) and sigma_sq kept below (n-1)/(2 tgm_lam), so that the
    s_sq conditional's rate (n-1)/(2 sigma_sq) exceeds tgm_lam.  The
    latent-value sampler passes None.
    """
    shape = (n + prior.nu0 + 1.0) / 2.0
    try:
        rate = (prior.nu0 * prior.sigma0_sq + (n - 1.0) * s_sq + n * (ybar - mu) ** 2
                + prior.kappa0 * (mu - prior.mu0) ** 2) / 2.0
    except OverflowError:  # a square of a finite state
        rate = math.inf
    if not rate < math.inf:
        raise NumericalError("sigma_sq's rate is not finite", dict(mu=mu, ybar=ybar, s_sq=s_sq))
    prec_floor = 0.0 if tgm_lam is None else 2.0 * tgm_lam / (n - 1.0)
    if constrained:
        prec_floor = max(prec_floor, 1.0 / (mu * (1.0 - mu)))
    sigma_sq = 1.0 / sample_trunc_gamma(shape, rate, prec_floor, math.inf, rng)
    if constrained:
        sigma_sq = min(sigma_sq, mu * (1.0 - mu))
    if tgm_lam is not None:
        sigma_sq = min(sigma_sq, math.nextafter((n - 1.0) / (2.0 * tgm_lam), 0.0))
        # Rounding can leave the rate equal to tgm_lam one ulp below the cap.
        while (n - 1.0) / (2.0 * sigma_sq) <= tgm_lam:
            sigma_sq = math.nextafter(sigma_sq, 0.0)
    return sigma_sq


def draw_ybar(mu: float, sigma_sq: float, s_sq: float, omega_sq_inv: float, prec: float,
              ybar_star: float, n: int, window: tuple[float, float] | None,
              rng: Generator) -> float:
    """ybar | rest: normal with precision prec = omega_sq_inv + n/sigma_sq.

    window is mean_window(min((n-1)/n s_sq, 1/4)) if constrained, else None; a
    single-point window, at (n-1)/n s_sq >= 1/4, is returned without a draw.
    """
    mean = (ybar_star * omega_sq_inv + n * mu / sigma_sq) / prec
    sd = math.sqrt(1.0 / prec)
    if window is None:
        return mean + sd * rng.standard_normal()
    lo, hi = window
    if lo == hi:
        return lo
    return snap_mean(sample_trunc_normal(mean, sd, lo, hi, rng), s_sq, n / (n - 1.0))


def _log_mass(mean: float, sd: float, lo: float, hi: float) -> float:
    """log P(lo <= N(mean, sd^2) <= hi); -inf where that mass underflows."""
    try:
        _, la, lb = normal_window(mean, sd, lo, hi)
    except SamplingError:
        return -math.inf
    return lb + math.log(-math.expm1(la - lb))


def sweep_constants(release_unit: PrivateRelease, prior: PriorSpec,
                    mode: ConstraintMode) -> tuple:
    """What gibbs_step reads of the release, prior and mode."""
    n, eps1n = release_unit.n, release_unit.budget.eps1 * release_unit.n
    lam = release_unit.budget.eps2 * n  # the Laplace term holds log c within about 1/(lam s*)
    return (n, lam, release_unit.ybar_star, release_unit.s_sq_star,
            mode is ConstraintMode.MOMENT_CONSTRAINED, eps1n, (n - 1.0) / 2.0, prior.kappa0,
            prior.mu0, prior.nu0 * prior.sigma0_sq, prior.nu0 / 2.0 + 2.0,
            (4.0 if prior.kappa0 else 1.0)
            * min(_SLICE_WIDTH, 8.0 / (lam * clamped_release(release_unit)[1])))


def _ridge_log_ratio(x: float, p: tuple) -> float:
    """log target at the scale move's image under c = e^x over the target at the state.

    The image has c sigma_sq, c s_sq, mu_at + sqrt(c) mu_off and ybar_at + sqrt(c) ybar_off.
    -inf at or above the TGM cap, or if q = n/(n-1) > 0 where infeasible.  Else prior and
    N(ybar | mu, sigma_sq/n): c^-power e^(-rate (e^-x - 1)); gamma: c^-1; Laplace:
    e^(-lam (|c s_sq - s*| - gap)); Jacobian: c^(coef + 1 + power); N(ybar_star | ybar) if
    half_omega, which is 1/(2 omega_sq), is not 0.
    """
    alpha, lam, ybar_star, s_sq_star, q, sigma_sq, s_sq, mu_at, mu_off, ybar_at, ybar_off, \
        coef, rate, half_omega, noise, gap = p
    c = math.exp(x)
    sig, root = c * sigma_sq, math.sqrt(c)
    ybar_c = ybar_at + root * ybar_off
    if alpha / sig <= lam or q and not (sig <= (m := mu_at + root * mu_off) * (1.0 - m)
                                        and c * s_sq <= q * ybar_c * (1.0 - ybar_c)):
        return 0.0 if c == 1.0 else -math.inf  # c = 1: the state, which may miss by an ulp
    d = ybar_c - ybar_star
    return (coef * x - rate * math.expm1(-x) - (half_omega and half_omega * (d * d - noise))
            - lam * (abs(c * s_sq - s_sq_star) - gap))


def _slice_step(p: tuple, width: float, rng) -> float:
    """x = log c from one slice step at x = 0 under e^_ridge_log_ratio(x, p): an interval
    of the given width placed at random around 0, then shrinkage toward 0 (Neal, Ann.
    Statist. 31, 2003, section 4, without stepping out)."""
    log_y, left = math.log1p(-rng.random()), -width * rng.random()
    right = left + width
    for _ in range(_SLICE_SHRINKS):
        x = left + (right - left) * rng.random()
        if _ridge_log_ratio(x, p) >= log_y:
            return x
        left, right = (x, right) if x < 0.0 else (left, x)
    raise SamplingError("the slice step on log c ran out of shrinkage proposals",
                        {"left": left, "right": right, "log_y": log_y, "p": p})


def gibbs_step(state: GibbsState, release_unit: PrivateRelease, prior: PriorSpec,
               mode: ConstraintMode, rng, consts: tuple | None = None) -> GibbsState:
    """One sweep: (mu, ybar) as a block, sigma_sq, the scale move, s_sq, omega_sq_inv.

    consts is sweep_constants(release_unit, prior, mode), which run_chain computes once.
    """
    n, lam, ybar_star, s_sq_star, constrained, eps1n, alpha, kappa0, mu0, nu0_sigma0_sq, \
        power, width = consts or sweep_constants(release_unit, prior, mode)
    mu, sigma_sq, s_sq, omega_sq_inv = state.mu, state.sigma_sq, state.s_sq, state.omega_sq_inv

    # --- mu with ybar integrated out: its prior times N(ybar_star | mu, sigma_sq/n + omega_sq)
    n_prec, prec_y = n / sigma_sq, omega_sq_inv + n / sigma_sq  # prec_y: of ybar | mu
    prec = kappa0 / sigma_sq + omega_sq_inv * n_prec / prec_y
    mean = (kappa0 * mu0 / sigma_sq + ybar_star * omega_sq_inv * n_prec / prec_y) / prec
    if not (math.isfinite(prec) and math.isfinite(mean)):
        raise NumericalError("mu's precision or mean is not finite", asdict(state))
    scaled = (n - 1.0) / n * s_sq
    window = mean_window(min(scaled, 0.25)) if constrained else None  # of ybar
    if not constrained:
        mu = mean + rng.standard_normal() / math.sqrt(prec)
    elif sigma_sq >= 0.25 or scaled >= 0.25:
        mu = draw_mu(state.ybar, sigma_sq, n, prior, True, rng)
    else:
        # Independence Metropolis; the ratio is P(ybar in its window | mu) at prop over mu.
        lo, hi = mean_window(sigma_sq)
        prop = snap_mean(sample_trunc_normal(mean, prec ** -0.5, lo, hi, rng), sigma_sq, 1.0)
        sd_y = math.sqrt(1.0 / prec_y)
        log_r = (_log_mass((ybar_star * omega_sq_inv + n_prec * prop) / prec_y, sd_y, *window)
                 - _log_mass((ybar_star * omega_sq_inv + n_prec * mu) / prec_y, sd_y, *window))
        if log_r >= 0.0 or rng.random() < math.exp(log_r):
            mu = prop
    ybar = draw_ybar(mu, sigma_sq, s_sq, omega_sq_inv, prec_y, ybar_star, n, window, rng)

    sigma_sq = draw_sigma_sq(mu, ybar, s_sq, n, prior, constrained, lam, rng)

    # --- scale move: one slice step on log c
    rate = (nu0_sigma0_sq + (0.0 if kappa0 else n * (ybar - mu) ** 2)) / (2.0 * sigma_sq)
    noise = (ybar - ybar_star) * (ybar - ybar_star) if kappa0 else 0.0
    if not rate + noise < math.inf:  # else the log density can be NaN or +inf
        raise NumericalError("the scale move's log density is not finite",
                             dict(mu=mu, sigma_sq=sigma_sq, ybar=ybar, s_sq=s_sq))
    mu_at, ybar_at = (mu0, mu0) if kappa0 else (mu, ybar)
    p = (alpha, lam, ybar_star, s_sq_star, n / (n - 1.0) if constrained else 0.0, sigma_sq, s_sq,
         mu_at, mu - mu_at, ybar_at, ybar - ybar_at, (2.0 if kappa0 else 1.0) - power, rate,
         omega_sq_inv / 2.0 if kappa0 else 0.0, noise, abs(s_sq - s_sq_star))
    if (c := math.exp(_slice_step(p, width, rng))) != 1.0:
        root = math.sqrt(c)
        mu, sigma_sq = mu_at + root * (mu - mu_at), c * sigma_sq
        ybar, s_sq = ybar_at + root * (ybar - ybar_at), c * s_sq

    upper = n / (n - 1.0) * ybar * (1.0 - ybar) if constrained else math.inf
    s_sq = sample_tgm(alpha, (n - 1.0) / (2.0 * sigma_sq), lam, s_sq_star, upper, rng)

    diff = max(abs(ybar_star - ybar), _ABS_DIFF_FLOOR)
    omega_sq_inv = sample_inverse_gaussian(eps1n / diff, eps1n * eps1n, rng)
    return GibbsState(mu, sigma_sq, ybar, s_sq, omega_sq_inv)


def run_chain(release: PrivateRelease, prior: PriorSpec, mode: ConstraintMode,
              config: SamplerConfig, force_sigma_constraint: bool = False
              ) -> PosteriorDraws:
    """Run the Gibbs sampler and return thinned post-burn-in draws.

    The release and any conjugate prior may be on an arbitrary [a, b]
    scale; both are mapped to [0, 1] here and the draws stay on that
    scale.
    """
    check_config(release.n, release.budget, prior, True, force_sigma_constraint)
    release_unit, prior_unit = release.to_unit(), prior.to_unit(release.bounds)

    rng = UniformBlock(np.random.default_rng(config.seed))
    state = init_state(release_unit)
    consts = sweep_constants(release_unit, prior_unit, mode)

    def sweep(t):
        nonlocal state
        state = gibbs_step(state, release_unit, prior_unit, mode, rng, consts)
        return state.mu, state.sigma_sq, state.ybar, state.s_sq, state.omega_sq_inv

    mu, sigma_sq, ybar, s_sq, omega_sq_inv = config.record(sweep, 5)
    return PosteriorDraws(mu=mu, sigma_sq=sigma_sq, ybar=ybar, s_sq=s_sq,
                          omega_sq_inv=omega_sq_inv, config=config)


def predictive_draws(draws: PosteriorDraws, mode: PredictiveMode, bounds: Bounds,
                     rng: Generator) -> np.ndarray:
    """One posterior predictive observation per retained draw, on [a, b].

    PLAIN draws from N(mu_t, sigma_sq_t); TRUNCATED_PER_DRAW restricts
    each of those normals to the bounds; CLIP_AD_HOC draws plainly and
    clips into the bounds afterwards.
    """
    if len(draws) == 0:
        raise ValueError("predictive_draws needs a non-empty chain")
    mu = draws.mu
    sd = np.sqrt(draws.sigma_sq)
    if mode is PredictiveMode.TRUNCATED_PER_DRAW:
        out = np.array([sample_trunc_normal(m, s, 0.0, 1.0, rng)
                        for m, s in zip(mu.tolist(), sd.tolist())])
    else:
        out = mu + sd * rng.standard_normal(mu.size)
        if mode is PredictiveMode.CLIP_AD_HOC:
            out = np.clip(out, 0.0, 1.0)
    return bounds.from_unit(out, 0.0)[0]
