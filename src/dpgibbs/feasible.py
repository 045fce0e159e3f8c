"""Closed-form feasibility bounds for parameters and statistics of [0, 1] data.

Bounded data force bounded moments: the population pair (mu, sigma_sq)
must satisfy sigma_sq <= mu (1 - mu), and the sample pair (ybar, s_sq)
must satisfy s_sq <= n/(n-1) ybar (1 - ybar).  pair_feasible and
stats_feasible are those predicates; the analogous predicate system for
simple linear regression on unit-interval variables follows them.

This module owns the window on a mean, ``0.5 -+ sqrt(0.25 - v)``
(mean_window), and the ulp snap that pulls a drawn mean back inside it
(snap_mean); the constrained samplers in gibbs.py truncate to these.

The windows are closed and the predicates use exact comparisons with
no epsilon slack; callers who need numerical slack must apply it
themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class RegTheta:
    """Intercept/slope pair for the simple regression model.

    Feasibility is a predicate (see regression_theta_feasible), not a
    construction constraint: samplers draw freely and reject.
    """

    theta0: float
    theta1: float


def mean_window(v: float) -> tuple[float, float]:
    """Means m of [0, 1] data with m (1 - m) >= v, for 0 <= v <= 1/4.

    v is sigma_sq for mu, and (n-1)/n s_sq for ybar.
    """
    r = math.sqrt(0.25 - v)
    return 0.5 - r, 0.5 + r


def snap_mean(m: float, v: float, scale: float) -> float:
    """Pull m toward 1/2 by ulps until v <= scale m (1 - m) holds exactly.

    mean_window goes through a sqrt, so at its edges the product form can
    disagree by rounding.  scale is 1 for (mu, sigma_sq) and n/(n-1) for
    (ybar, s_sq).
    """
    while v > scale * m * (1.0 - m):
        m = math.nextafter(m, 0.5)
    return m


def pair_feasible(mu: float, sigma_sq: float) -> bool:
    """Exact predicate for the population pair: sigma_sq in [0, mu (1 - mu)]."""
    return 0.0 <= mu <= 1.0 and 0.0 <= sigma_sq <= mu * (1.0 - mu)


def stats_feasible(ybar: float, s_sq: float, n: int) -> bool:
    """Exact predicate for the sample pair at size n."""
    return (
        0.0 <= ybar <= 1.0
        and 0.0 <= s_sq <= n / (n - 1.0) * ybar * (1.0 - ybar)
    )


def regression_stats_feasible(x1t1: float, x1tx1: float, yt1: float,
                              x1ty: float, yty: float, n: int) -> bool:
    """Predicate for the regression sufficient statistics of unit-interval data.

    Encodes 0 <= x1'x1 <= x1'1 <= n, 0 <= Y'Y <= Y'1 <= n and
    0 <= x1'Y <= min(x1'1, Y'1).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return (
        0.0 <= x1tx1 <= x1t1 <= n
        and 0.0 <= yty <= yt1 <= n
        and 0.0 <= x1ty <= min(x1t1, yt1)
    )


def regression_theta_feasible(theta: RegTheta) -> bool:
    """Predicate for the regression coefficients of unit-interval data.

    theta1 < 0 requires 0 <= theta0 <= 1 - theta1; theta1 >= 0 requires
    -theta1 <= theta0 <= 1.
    """
    if theta.theta1 < 0.0:
        return 0.0 <= theta.theta0 <= 1.0 - theta.theta1
    return -theta.theta1 <= theta.theta0 <= 1.0
