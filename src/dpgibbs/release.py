"""Laplace-mechanism release of the sample mean and variance of bounded data.

The released pair (ybar_star, s_sq_star) is the only view of the data
the samplers ever see.  Release always happens on the [0, 1] scale
internally and is mapped back through the affine relations
``ybar = (b - a) * ybar_unit + a`` and ``s_sq = (b - a)^2 * s_sq_unit``,
which leave the released law unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .distributions import sample_laplace
from .errors import ValidationError

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Bounds:
    """Public interval [a, b] the data are promised to lie in.

    The promise must be independent of the realized values; that is a
    documented contract of the caller, not something this type can check.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("Bounds must be finite")
        if not self.a < self.b:
            raise ValueError("Bounds require a < b")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def is_unit(self) -> bool:
        return self.a == 0.0 and self.b == 1.0


UNIT = Bounds(0.0, 1.0)


@dataclass(frozen=True)
class Budget:
    """Privacy budget split (eps1 for the mean, eps2 for the variance)."""

    eps1: float
    eps2: float

    def __post_init__(self):
        if not (self.eps1 > 0 and self.eps2 > 0):
            raise ValueError("Budget requires eps1 > 0 and eps2 > 0")

    @property
    def total(self) -> float:
        return self.eps1 + self.eps2


@dataclass(frozen=True)
class GaussianSummary:
    """Exact sample mean and variance of n observations."""

    ybar: float
    s_sq: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("GaussianSummary requires n >= 2")
        if self.s_sq < 0:
            raise ValueError("GaussianSummary requires s_sq >= 0")


@dataclass(frozen=True)
class PrivateRelease:
    """Noisy statistics plus the public metadata the samplers need.

    The noisy values carry no invariants: Laplace noise is unbounded, so
    ybar_star may fall outside [a, b] and s_sq_star may be negative.
    """

    ybar_star: float
    s_sq_star: float
    n: int
    budget: Budget
    bounds: Bounds

    def to_unit(self) -> "PrivateRelease":
        """Map the release onto the [0, 1] analysis scale."""
        if self.bounds.is_unit:
            return self
        w = self.bounds.width
        return PrivateRelease(
            ybar_star=(self.ybar_star - self.bounds.a) / w,
            s_sq_star=self.s_sq_star / (w * w),
            n=self.n,
            budget=self.budget,
            bounds=UNIT,
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "ybar_star": self.ybar_star,
                "s_sq_star": self.s_sq_star,
                "n": self.n,
                "eps1": self.budget.eps1,
                "eps2": self.budget.eps2,
                "a": self.bounds.a,
                "b": self.bounds.b,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "PrivateRelease":
        try:
            obj = json.loads(text)
            return cls(
                ybar_star=float(obj["ybar_star"]),
                s_sq_star=float(obj["s_sq_star"]),
                n=int(obj["n"]),
                budget=Budget(float(obj["eps1"]), float(obj["eps2"])),
                bounds=Bounds(float(obj["a"]), float(obj["b"])),
            )
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"malformed release JSON: {exc}") from exc


def summarize(values, bounds: Bounds) -> GaussianSummary:
    """Exact summary of raw data, validated against the public bounds."""
    y = np.asarray(values, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise ValidationError("need a 1-d array of at least 2 values")
    if not np.all(np.isfinite(y)):
        raise ValidationError("data contain non-finite values")
    if y.min() < bounds.a or y.max() > bounds.b:
        raise ValidationError(
            f"data fall outside the declared bounds [{bounds.a}, {bounds.b}]"
        )
    n = int(y.size)
    ybar = float(y.mean())
    s_sq = float(y.var(ddof=1))
    return GaussianSummary(ybar=ybar, s_sq=s_sq, n=n)


def sensitivities(bounds: Bounds, n: int) -> tuple[float, float]:
    """Sensitivities of the sample mean and variance on [a, b]: ((b-a)/n, (b-a)^2/n)."""
    if n < 2:
        raise ValueError("sensitivities require n >= 2")
    w = bounds.width
    return w / n, w * w / n


def to_unit_scale(summary: GaussianSummary, bounds: Bounds) -> GaussianSummary:
    """Rescale a summary from [a, b] to [0, 1]."""
    w = bounds.width
    return GaussianSummary(
        ybar=(summary.ybar - bounds.a) / w,
        s_sq=summary.s_sq / (w * w),
        n=summary.n,
    )


def from_unit_release(release_unit: PrivateRelease, bounds: Bounds) -> PrivateRelease:
    """Map a [0, 1]-scale release onto [a, b]; budget and n are unchanged."""
    if not release_unit.bounds.is_unit:
        raise ValueError("from_unit_release expects a release on [0, 1]")
    w = bounds.width
    return PrivateRelease(
        ybar_star=w * release_unit.ybar_star + bounds.a,
        s_sq_star=w * w * release_unit.s_sq_star,
        n=release_unit.n,
        budget=release_unit.budget,
        bounds=bounds,
    )


def release(summary: GaussianSummary, bounds: Bounds, budget: Budget,
            rng: Generator) -> PrivateRelease:
    """Release the summary with independent Laplace noise.

    Noise scales are (b-a)/(eps1 n) for the mean and (b-a)^2/(eps2 n)
    for the variance; the computation rescales to [0, 1], adds unit-scale
    noise and maps back, which is distributionally identical.
    """
    unit = to_unit_scale(summary, bounds)
    n = summary.n
    ybar_star = sample_laplace(unit.ybar, 1.0 / (budget.eps1 * n), rng)
    s_sq_star = sample_laplace(unit.s_sq, 1.0 / (budget.eps2 * n), rng)
    unit_release = PrivateRelease(
        ybar_star=ybar_star, s_sq_star=s_sq_star, n=n, budget=budget, bounds=UNIT
    )
    return from_unit_release(unit_release, bounds)

