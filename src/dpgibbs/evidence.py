"""Executable forms of the propriety and matching results.

Three pieces: the flat-prior evidence in closed form and by independent
quadrature, a divergence witness for the scale-invariant prior, and the
Laplace-uniform credible/confidence matching identity.

The evidence quadrature never touches the closed form it is checked
against.  It is a nested composite Gauss-Legendre rule in log
coordinates, the same rule as the divergence scan's, over ranges set by
the integrand's own scales; it does not use scipy.integrate.  The
closed-form densities of the noisy statistics are test references, in
tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import cython_special as cs

from .summary import IntervalEstimate

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)
_TAIL = 40.0  # each quadrature range leaves out at most about e^-40 of its integrand's mass
_KINK_PANEL = 4.0  # outer panel width at the Laplace kink, in widths of the gamma in v


@dataclass(frozen=True)
class EvidenceReport:
    closed_form: float
    quadrature: float

    @property
    def rel_err(self) -> float:
        return abs(self.closed_form - self.quadrature) / abs(self.closed_form)


def flat_evidence_closed(s2_star: float, n: int, eps2: float) -> float:
    """Closed-form marginal evidence of the noisy pair under a flat prior.

    Equals (n-1)/(n-3) times the probability that a Laplace centered at
    s2_star with rate eps2 n lands above zero: half its tail beyond
    |s2_star| for s2_star < 0, one minus that otherwise.  Requires n > 3.
    """
    if n <= 3:
        raise ValueError("flat_evidence_closed requires n > 3")
    if eps2 <= 0:
        raise ValueError("eps2 must be positive")
    half_tail = 0.5 * math.exp(-eps2 * n * abs(s2_star))
    return (n - 1.0) / (n - 3.0) * (half_tail if s2_star < 0 else 1.0 - half_tail)


def _gl_edges(f, edges):
    """Composite Gauss-Legendre integral of a vectorized f over the panels between
    consecutive edges.

    edges has shape (panels + 1, *shape), each column its own partition; f is
    then called on nodes of shape (panels, *shape, 48) and the result has that
    shape.
    """
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (half * (f(mid[..., None] + half[..., None] * _GL_NODES) @ _GL_WEIGHTS)).sum(axis=0)


def _gl_panels(f, lo, hi, panels: int):
    """_gl_edges over [lo, hi] in equal panels; lo and hi may be arrays of one shape."""
    return _gl_edges(f, np.linspace(lo, hi, panels + 1))


def _graded_edges(lo: float, hi: float, panels: int, at: float, width: float) -> np.ndarray:
    """Edges of [lo, hi] in equal panels, or, where at lies inside and the equal panels
    are wider than width, panels that grow from width by doubling away from at, up to
    the equal panels' width."""
    wide = (hi - lo) / panels
    if not (lo < at < hi and width < wide):
        return np.linspace(lo, hi, panels + 1)
    cuts = np.cumsum(np.concatenate([width * 2.0 ** np.arange(math.ceil(math.log2(wide / width))),
                                     np.full(panels, wide)]))
    below, above = cuts[cuts < at - lo], cuts[cuts < hi - at]
    return np.concatenate([[lo], at - below[::-1], [at], at + above, [hi]])


def flat_evidence_quadrature(s2_star: float, n: int, eps1: float,
                             eps2: float) -> EvidenceReport:
    """Nested-quadrature evidence, reported against the closed form.

    The latent-mean part is a Laplace normalization (analytically one);
    it is still computed by quadrature at the given eps1 so that the
    eps1-invariance of the evidence is checkable numerically.

    Each range comes from its integrand's scales.  In v = log(s2 /
    sigma_sq) the gamma and the outer measure weigh e^((a-1) v - a e^v):
    mode log((a-1)/a), a tail of rate a - 1 below it (the
    sigma_sq^-(n-1)/2 tail) and a doubly exponential one above.  In
    u = log s2 the Laplace times ds2 = s2 du keeps s2 within
    _TAIL/(eps2 n) of max(s2_star, 0) above, and below no lower than
    where the Laplace's decay, or s2 itself, bounds the mass left out by
    e^-_TAIL.  In t = log sigma_sq the outer integrand carries the
    Laplace kink at t = log s2_star, smoothed over the gamma's width
    (2/(n-1))^(1/2) in v; at large n the 16 equal outer panels are graded
    toward it (_graded_edges).  The quadrature matches the closed form to
    about 1e-13 through n = 1000.  Beyond that the rounding of
    a log a - lgamma(a) and of a (v - e^v), about a 1e-16 each, sets the
    error: 4e-12 at n = 1e4 and 6e-11 at n = 1e5.
    """
    if n <= 3:
        raise ValueError("flat_evidence_quadrature requires n > 3")
    lam1 = eps1 * n
    mean_part = _gl_panels(lambda y: 0.5 * lam1 * np.exp(-lam1 * np.abs(y)),
                           -_TAIL / lam1, _TAIL / lam1, panels=4)

    a = (n - 1.0) / 2.0
    k = a - 1.0
    v_mode = math.log(k / a)
    # k (w - e^w + 1) < -_TAIL beyond these, w = v - v_mode: below, from
    # e^w - 1 - w >= e^-1 w^2 / 2 on [-1, 0] or >= -1 - w; above, from >= w^2 / 2
    # or e^w >= 2 (1 + _TAIL / k)
    below = (math.sqrt(2.0 * math.e * _TAIL / k) if 2.0 * math.e * _TAIL <= k
             else 1.0 + _TAIL / k)
    above = min(math.sqrt(2.0 * _TAIL / k), math.log(2.0 + 2.0 * _TAIL / k))
    v_range = (v_mode - below, v_mode + above)

    lam = eps2 * n
    # the mass below s2 is at most min(lam s2, 1) e^(lam (s2 - max(s2_star, 0))) of the
    # whole, so below lam s2 = max(y, e^(min(y, 1) - 1)) it is at most e^-_TAIL
    y = lam * max(s2_star, 0.0) - _TAIL
    u_range = (math.log(max(y, math.exp(min(y, 1.0) - 1.0)) / lam),
               math.log(max(s2_star, 0.0) + _TAIL / lam))

    log_c = a * math.log(a) - cs.gammaln(a) + math.log(lam / 2.0)
    kink = math.log(s2_star) if s2_star > 0 else -math.inf

    def outer(t):
        """sigma_sq int_0^inf Lap(s2_star; s2, 1/lam) Gamma(s2; a, a/sigma_sq) ds2 at
        sigma_sq = e^t, integrated in u = log s2 over u_range cut to u - t in v_range,
        with the Laplace kink at u = log s2_star as a panel edge."""
        lo = np.maximum(u_range[0], t + v_range[0])
        hi = np.minimum(u_range[1], t + v_range[1])
        split = np.where((lo < kink) & (kink < hi), kink, 0.5 * (lo + hi))
        t = t[..., None]  # against the (panels, *t.shape, 48) nodes

        def inner(u):
            v = u - t
            return np.exp(log_c + t + a * (v - np.exp(v)) - lam * np.abs(s2_star - np.exp(u)))

        return _gl_panels(inner, lo, split, panels=6) + _gl_panels(inner, split, hi, panels=6)

    # Near t = log s2_star the outer integrand is the Laplace kink seen through the
    # gamma, whose width in v is about (2/(n-1))^(1/2); at large n the equal panels are
    # too wide for it, so they are graded toward the kink.
    edges = _graded_edges(u_range[0] - v_range[1], u_range[1] - v_range[0], 16, kink,
                          _KINK_PANEL * math.sqrt(2.0 / (n - 1.0)))
    total = mean_part * _gl_edges(outer, edges)
    closed = flat_evidence_closed(s2_star, n, eps2)
    return EvidenceReport(closed_form=closed, quadrature=float(total))


def jeffreys_divergence_scan(n: int, eps2: float, deltas) -> list[tuple[float, float]]:
    """Partial integrals I(delta) of the scale-prior divergence witness.

    I(delta) integrates (sigma_sq)^-1 L(sigma_sq) over [delta, 1], where
    L is the lower-bound integrand with constant
    k = (n-1)/(2 eps2 n): L = (eps2 n / 2) (k / (k + sigma_sq))^((n-1)/2).
    The scan must grow at least like c log(1/delta) with c = L(1); the
    bound is uniform in s2_star, which is therefore not an argument.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    deltas = [float(d) for d in deltas]
    if any(d <= 0 or d > 1 for d in deltas):
        raise ValueError("deltas must lie in (0, 1]")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    k = (n - 1.0) / (2.0 * eps2 * n)
    a = (n - 1.0) / 2.0
    coef = eps2 * n / 2.0

    def f(t):
        # t = log sigma_sq substitution removes the 1/sigma_sq factor
        return coef * np.exp(a * (math.log(k) - np.log(k + np.exp(t))))

    return list(zip(deltas, _gl_panels(f, np.log(deltas), 0.0, panels=24).tolist()))


def _laplace_quantile(p: float, loc: float, scale: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    if p < 0.5:
        return loc + scale * math.log(2.0 * p)
    return loc - scale * math.log(2.0 * (1.0 - p))


def laplace_uniform_matching(lam: float, x_obs: float, alpha: float) -> dict:
    """Credible and pivotal confidence intervals for a Laplace location.

    Under a flat prior the posterior is Lap(x_obs, 1/lam), so the central
    credible interval is its quantile pair; the confidence interval comes
    from the pivot (location - observation) ~ Lap(0, 1/lam).  The two
    constructions coincide endpoint for endpoint.  Both intervals carry
    mass 1 - alpha.
    """
    if lam <= 0 or not math.isfinite(x_obs) or not 0.0 < alpha < 1.0:
        raise ValueError("need lam > 0, finite x_obs, alpha in (0, 1)")
    scale = 1.0 / lam
    credible = IntervalEstimate(
        _laplace_quantile(alpha / 2.0, x_obs, scale),
        _laplace_quantile(1.0 - alpha / 2.0, x_obs, scale),
        1.0 - alpha,
    )
    pivot_lo = _laplace_quantile(alpha / 2.0, 0.0, scale)
    pivot_hi = _laplace_quantile(1.0 - alpha / 2.0, 0.0, scale)
    confidence = IntervalEstimate(x_obs + pivot_lo, x_obs + pivot_hi, 1.0 - alpha)
    diff = max(abs(credible.lo - confidence.lo), abs(credible.hi - confidence.hi))
    return {"credible": credible, "confidence": confidence, "max_endpoint_diff": diff}
