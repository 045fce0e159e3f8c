"""Laplace-mechanism release of the sample mean and variance of bounded data.

The released pair (ybar_star, s_sq_star) is the only view of the data
the samplers ever see.  Release always happens on the [0, 1] scale
internally and is mapped back through the affine relations
``ybar = a + (b - a) * ybar_unit`` and ``s_sq = (b - a)^2 * s_sq_unit``
(``Bounds.from_unit``; ``Bounds.to_unit`` is its inverse), which leave
the released law unchanged.
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
    (b - a)^2, the variance scale of the map to [0, 1], must be positive and finite.
    """

    a: float
    b: float

    def __post_init__(self):
        w = self.b - self.a
        if not (self.a < self.b and 0.0 < w * w < math.inf):
            raise ValueError("Bounds require a < b with 0 < (b - a)^2 < inf")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def is_unit(self) -> bool:
        return self.a == 0.0 and self.b == 1.0

    def to_unit(self, mean, var):
        """A location and a variance (floats or arrays) on [a, b], mapped onto [0, 1]."""
        w = self.width
        return (mean - self.a) / w, var / (w * w)

    def from_unit(self, mean, var):
        """A location and a variance (floats or arrays) on [0, 1], mapped onto [a, b]."""
        w = self.width
        return self.a + w * mean, w * w * var


UNIT = Bounds(0.0, 1.0)


def as_int(value) -> int:
    """An integer JSON field such as 43, 43.0 or "43"; ValueError for a bool or a fraction."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Budget:
    """Privacy budget split (eps1 for the mean, eps2 for the variance)."""

    eps1: float
    eps2: float

    def __post_init__(self):
        if not (0 < self.eps1 < math.inf and 0 < self.eps2 < math.inf):
            raise ValueError("Budget requires finite eps1 > 0 and eps2 > 0")


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

    The noisy values carry no invariant beyond being finite: Laplace noise
    is unbounded, so ybar_star may fall outside [a, b] and s_sq_star may
    be negative.
    """

    ybar_star: float
    s_sq_star: float
    n: int
    budget: Budget
    bounds: Bounds

    def __post_init__(self):
        if self.n < 2 or not (math.isfinite(self.ybar_star) and math.isfinite(self.s_sq_star)):
            raise ValueError("PrivateRelease requires n >= 2 and finite noisy statistics")

    def to_unit(self) -> "PrivateRelease":
        """Map the release onto the [0, 1] analysis scale."""
        ybar_star, s_sq_star = self.bounds.to_unit(self.ybar_star, self.s_sq_star)
        if not (math.isfinite(ybar_star) and math.isfinite(s_sq_star)):
            raise ValidationError(f"noisy statistics overflow on [0, 1] from {self.bounds}")
        return PrivateRelease(ybar_star=ybar_star, s_sq_star=s_sq_star, n=self.n,
                              budget=self.budget, bounds=UNIT)

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
                n=as_int(obj["n"]),
                budget=Budget(float(obj["eps1"]), float(obj["eps2"])),
                bounds=Bounds(float(obj["a"]), float(obj["b"])),
            )
        except (KeyError, TypeError, ValueError) as exc:  # ValueError covers JSONDecodeError
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


def release(summary: GaussianSummary, bounds: Bounds, budget: Budget,
            rng: Generator) -> PrivateRelease:
    """Release the summary with independent Laplace noise.

    Noise scales are (b-a)/(eps1 n) for the mean and (b-a)^2/(eps2 n)
    for the variance; the computation rescales to [0, 1], adds unit-scale
    noise and maps back, which is distributionally identical.
    """
    ybar, s_sq = bounds.to_unit(summary.ybar, summary.s_sq)
    n = summary.n
    ybar_star, s_sq_star = bounds.from_unit(
        sample_laplace(ybar, 1.0 / (budget.eps1 * n), rng),
        sample_laplace(s_sq, 1.0 / (budget.eps2 * n), rng))
    return PrivateRelease(ybar_star=ybar_star, s_sq_star=s_sq_star, n=n, budget=budget,
                          bounds=bounds)

