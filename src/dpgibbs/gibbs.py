"""Exact Gibbs sampler for (mu, sigma_sq) given a noisy mean/variance release.

The sampler operates entirely on the [0, 1] scale.  One sweep updates,
in this fixed order: mu, sigma_sq, ybar, s_sq, omega_sq_inv.  The full
conditionals are

  mu       normal (flat prior) or precision-weighted normal (conjugate
           prior), truncated to the feasible mu-window in constrained mode;
  sigma_sq inverse gamma, always truncated below (n-1)/(2 n eps2) so the
           s_sq conditional stays a valid truncated gamma mixture, and
           additionally below mu (1 - mu) in constrained mode;
  ybar     normal combining the released value (through its current
           noise-scale omega_sq) with the model mean, truncated to the
           feasible ybar-window in constrained mode;
  s_sq     truncated gamma mixture TGM((n-1)/2, (n-1)/(2 sigma_sq),
           n eps2, s_sq_star), capped at n/(n-1) ybar (1 - ybar) in
           constrained mode;
  1/omega_sq inverse Gaussian with mean eps1 n / |ybar_star - ybar|.

Per-sweep cost does not depend on n.

This module owns the mu and sigma_sq conditionals (draw_mu,
draw_sigma_sq), which the latent-value sampler in augmented.py shares;
only the collapsed sampler adds the TGM precision floor and cap on
sigma_sq.  The feasibility windows come from feasible.py and the
variate kernels from distributions.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.random import Generator

from .distributions import (
    sample_inverse_gaussian,
    sample_tgm,
    sample_trunc_gamma,
    sample_trunc_normal,
)
from .errors import ConfigurationError
from .feasible import mean_window, snap_mean
from .release import Bounds, PrivateRelease

_SIGMA_SQ_FLOOR = 1e-4  # initialization floor when the released variance is <= 0
_ABS_DIFF_FLOOR = 1e-12  # |ybar_star - ybar| clamp for the inverse-Gaussian mean


class ConstraintMode(Enum):
    UNCONSTRAINED = "unconstrained"
    MOMENT_CONSTRAINED = "constrained"


class PredictiveMode(Enum):
    PLAIN = "plain"
    TRUNCATED_PER_DRAW = "truncated"
    CLIP_AD_HOC = "clip"


@dataclass(frozen=True)
class PriorSpec:
    """Flat or conjugate normal-inverse-gamma prior on (mu, sigma_sq).

    Conjugate hyperparameters are given on the original data scale and
    are rescaled internally together with the release.
    """

    kind: str  # "flat" | "nig"
    mu0: float = 0.0
    kappa0: float = 0.0
    nu0: float = 0.0
    sigma0_sq: float = 0.0

    def __post_init__(self):
        if self.kind not in ("flat", "nig"):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.kind == "nig":
            ok = (
                math.isfinite(self.mu0)
                and self.kappa0 > 0
                and self.nu0 > 0
                and self.sigma0_sq > 0
            )
            if not ok:
                raise ValueError("conjugate prior needs finite mu0 and positive "
                                 "kappa0, nu0, sigma0_sq")

    @classmethod
    def flat(cls) -> "PriorSpec":
        return cls(kind="flat")

    @classmethod
    def conjugate(cls, mu0: float, kappa0: float, nu0: float,
                  sigma0_sq: float) -> "PriorSpec":
        return cls(kind="nig", mu0=mu0, kappa0=kappa0, nu0=nu0, sigma0_sq=sigma0_sq)

    def to_unit(self, bounds: Bounds) -> "PriorSpec":
        """Rescale the location/scale hyperparameters onto [0, 1]."""
        if self.kind == "flat" or bounds.is_unit:
            return self
        w = bounds.width
        return PriorSpec(
            kind="nig",
            mu0=(self.mu0 - bounds.a) / w,
            kappa0=self.kappa0,
            nu0=self.nu0,
            sigma0_sq=self.sigma0_sq / (w * w),
        )


@dataclass
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
    init: GibbsState | None = None

    def __post_init__(self):
        if self.iters <= 0:
            raise ValueError("iters must be positive")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.burn_in is not None and not 0 <= self.burn_in < self.iters:
            raise ValueError("burn_in must satisfy 0 <= burn_in < iters")

    @property
    def effective_burn_in(self) -> int:
        return self.burn_in if self.burn_in is not None else self.iters // 10

    @property
    def kept(self) -> range:
        """Iterations whose state is stored: every thin-th after burn-in."""
        return range(self.effective_burn_in, self.iters, self.thin)


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


def _require_tgm_valid(release_unit: PrivateRelease, force_sigma_constraint: bool):
    n = release_unit.n
    eps2 = release_unit.budget.eps2
    if eps2 < 2.0 * (n - 1.0) / n or force_sigma_constraint:
        return
    raise ConfigurationError(
        f"eps2 = {eps2} >= 2(n-1)/n = {2.0 * (n - 1.0) / n}: the bounded-data "
        "guarantee sigma_sq <= 1/4 no longer implies the rate condition of the "
        "s_sq full conditional. Re-run with force_sigma_constraint=True to impose "
        "sigma_sq < (n-1)/(2 n eps2) as an explicit modeling assumption."
    )


def unit_inputs(release: PrivateRelease, prior: PriorSpec
                ) -> tuple[PrivateRelease, PriorSpec]:
    """The release and prior on the [0, 1] scale, checking n for the flat prior."""
    release_unit = release.to_unit()
    prior_unit = prior.to_unit(release.bounds)
    if prior_unit.kind == "flat" and release.n < 3:
        raise ConfigurationError("the flat prior needs n >= 3")
    return release_unit, prior_unit


def clamped_release(release_unit: PrivateRelease) -> tuple[float, float]:
    """Released (mean, variance) clamped to [0, 1] and [1e-4, 1/4]."""
    return (min(max(release_unit.ybar_star, 0.0), 1.0),
            min(max(release_unit.s_sq_star, _SIGMA_SQ_FLOOR), 0.25))


def init_state(release_unit: PrivateRelease, config: SamplerConfig) -> GibbsState:
    """Starting point of the chain, from a [0, 1]-scale release.

    The released values are clamped into the feasible region: sigma_sq
    and s_sq to [1e-4, 1/4], ybar to [0, 1]; omega_sq starts at its prior
    mean 2/(eps1^2 n^2), stored as the inverse.
    """
    if not release_unit.bounds.is_unit:
        raise ValueError("init_state expects a release on the [0, 1] scale")
    if config.init is not None:
        return GibbsState(**vars(config.init))
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

    At sigma_sq >= 1/4 the window is the single point 1/2, which is
    returned without consuming a draw.
    """
    if prior.kind == "flat":
        mean = ybar
        sd = math.sqrt(sigma_sq / n)
    else:
        mean = (n * ybar + prior.kappa0 * prior.mu0) / (n + prior.kappa0)
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

    Constrained mode truncates to sigma_sq <= mu (1 - mu).  tgm_lam is the
    collapsed sampler's TGM noise rate eps2 n: the precision is floored at
    2 tgm_lam/(n-1) and sigma_sq kept below (n-1)/(2 tgm_lam), so that the
    s_sq conditional's rate (n-1)/(2 sigma_sq) exceeds tgm_lam.  The
    latent-value sampler passes None.
    """
    if prior.kind == "flat":
        shape = (n - 2.0) / 2.0
        rate = ((n - 1.0) * s_sq + n * (ybar - mu) ** 2) / 2.0
    else:
        shape = (n + prior.nu0) / 2.0
        rate = (prior.nu0 * prior.sigma0_sq + (n - 1.0) * s_sq
                + n * (ybar - mu) ** 2) / 2.0
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


def draw_ybar(mu: float, sigma_sq: float, s_sq: float, omega_sq_inv: float,
              ybar_star: float, n: int, constrained: bool, rng: Generator) -> float:
    """ybar | rest: normal, truncated to mean_window((n-1)/n s_sq) if constrained."""
    prec = omega_sq_inv + n / sigma_sq
    mean = (ybar_star * omega_sq_inv + n * mu / sigma_sq) / prec
    sd = math.sqrt(1.0 / prec)
    if not constrained:
        return mean + sd * rng.standard_normal()
    scaled = (n - 1.0) / n * s_sq
    if scaled >= 0.25:
        return 0.5
    lo, hi = mean_window(scaled)
    return snap_mean(sample_trunc_normal(mean, sd, lo, hi, rng), s_sq, n / (n - 1.0))


def gibbs_step(state: GibbsState, release_unit: PrivateRelease, prior: PriorSpec,
               mode: ConstraintMode, rng: Generator) -> GibbsState:
    """One full sweep in the order mu, sigma_sq, ybar, s_sq, omega_sq_inv."""
    n = release_unit.n
    eps1 = release_unit.budget.eps1
    lam = release_unit.budget.eps2 * n
    ybar_star = release_unit.ybar_star
    constrained = mode is ConstraintMode.MOMENT_CONSTRAINED

    mu = draw_mu(state.ybar, state.sigma_sq, n, prior, constrained, rng)
    sigma_sq = draw_sigma_sq(mu, state.ybar, state.s_sq, n, prior, constrained, lam, rng)
    ybar = draw_ybar(mu, sigma_sq, state.s_sq, state.omega_sq_inv, ybar_star, n,
                     constrained, rng)

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


def run_chain(release: PrivateRelease, prior: PriorSpec, mode: ConstraintMode,
              config: SamplerConfig, force_sigma_constraint: bool = False
              ) -> PosteriorDraws:
    """Run the Gibbs sampler and return thinned post-burn-in draws.

    The release and any conjugate prior may be on an arbitrary [a, b]
    scale; both are mapped to [0, 1] here and the draws stay on that
    scale.
    """
    release_unit, prior_unit = unit_inputs(release, prior)
    _require_tgm_valid(release_unit, force_sigma_constraint)

    rng = np.random.default_rng(config.seed)
    state = init_state(release_unit, config)
    kept = config.kept
    mu = np.empty(len(kept))
    sigma_sq = np.empty(len(kept))
    ybar = np.empty(len(kept))
    s_sq = np.empty(len(kept))
    omega_sq_inv = np.empty(len(kept))

    k = 0
    for t in range(config.iters):
        state = gibbs_step(state, release_unit, prior_unit, mode, rng)
        if t in kept:
            mu[k] = state.mu
            sigma_sq[k] = state.sigma_sq
            ybar[k] = state.ybar
            s_sq[k] = state.s_sq
            omega_sq_inv[k] = state.omega_sq_inv
            k += 1
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
        out = np.empty(mu.size)
        for i in range(mu.size):
            out[i] = sample_trunc_normal(float(mu[i]), float(sd[i]), 0.0, 1.0, rng)
    else:
        out = mu + sd * rng.standard_normal(mu.size)
        if mode is PredictiveMode.CLIP_AD_HOC:
            out = np.clip(out, 0.0, 1.0)
    return bounds.a + bounds.width * out
