"""Executable forms of the propriety and matching results.

Three pieces: the flat-prior evidence in closed form and by independent
quadrature, a divergence witness for the scale-invariant prior, and the
Laplace-uniform credible/confidence matching identity.

The evidence quadrature never touches the closed form it is checked
against.  The closed-form densities of the noisy statistics are test
references, in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import cython_special as cs

from .errors import NumericalError
from .summary import IntervalEstimate

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


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
    s2_star with rate eps2 n lands above zero.  Requires n > 3.
    """
    if n <= 3:
        raise ValueError("flat_evidence_closed requires n > 3")
    if eps2 <= 0:
        raise ValueError("eps2 must be positive")
    sgn = 0.0 if s2_star == 0 else math.copysign(1.0, s2_star)
    return ((n - 1.0) / (n - 3.0)
            * (0.5 + 0.5 * sgn * (1.0 - math.exp(-eps2 * n * abs(s2_star)))))


def _gl_panels(f, lo: float, hi: float, panels: int) -> float:
    """Composite Gauss-Legendre integral of a vectorized f over [lo, hi]."""
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0
    for k in range(panels):
        mid = 0.5 * (edges[k] + edges[k + 1])
        half = 0.5 * (edges[k + 1] - edges[k])
        total += half * float(np.dot(_GL_WEIGHTS, f(mid + half * _GL_NODES)))
    return total


def _s2_noise_integral(sigma_sq: float, s2_star: float, n: int, eps2: float) -> float:
    """int_0^inf Lap(s2_star; s2, 1/(eps2 n)) Gamma(s2; (n-1)/2, (n-1)/(2 sigma_sq)) ds2.

    Pure numerical quadrature: independent of the incomplete-gamma route.
    """
    a = (n - 1.0) / 2.0
    big_b = (n - 1.0) / (2.0 * sigma_sq)
    lam = eps2 * n
    log_c = a * math.log(big_b) - cs.gammaln(a) + math.log(lam / 2.0)

    def f(s2):
        return np.exp(log_c + (a - 1.0) * np.log(s2) - big_b * s2
                      - lam * np.abs(s2_star - s2))

    kink = max(s2_star, 0.0)
    bulk_hi = a / big_b + 12.0 * math.sqrt(a) / big_b
    hi = max(kink + 45.0 / lam, bulk_hi, 2e-2 / lam)
    tiny = 1e-300
    total = 0.0
    if kink > tiny:
        total += _gl_panels(f, tiny, kink, panels=10)
    total += _gl_panels(f, max(kink, tiny), hi, panels=14)
    return total


def flat_evidence_quadrature(s2_star: float, n: int, eps1: float,
                             eps2: float) -> EvidenceReport:
    """Nested-quadrature evidence, reported against the closed form.

    The latent-mean part is a Laplace normalization (analytically one);
    it is still computed by quadrature at the given eps1 so that the
    eps1-invariance of the evidence is checkable numerically.
    """
    if n <= 3:
        raise ValueError("flat_evidence_quadrature requires n > 3")
    lam1 = eps1 * n

    def lap(y):
        return 0.5 * lam1 * math.exp(-lam1 * abs(y))

    mean_part, _ = integrate.quad(lap, -math.inf, math.inf, points=None,
                                  epsabs=1e-12, epsrel=1e-10, limit=200)

    def outer(sigma_sq):
        return _s2_noise_integral(sigma_sq, s2_star, n, eps2)

    split = max(abs(s2_star), 0.05)
    v1, e1 = integrate.quad(outer, 0.0, split, epsabs=1e-12, epsrel=1e-9, limit=200)
    v2, e2 = integrate.quad(outer, split, math.inf, epsabs=1e-12, epsrel=1e-9, limit=200)
    if not (math.isfinite(v1) and math.isfinite(v2)):
        raise NumericalError(
            f"evidence quadrature failed to converge (err={e1 + e2})"
        )
    closed = flat_evidence_closed(s2_star, n, eps2)
    return EvidenceReport(closed_form=closed, quadrature=mean_part * (v1 + v2))


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

    out = []
    for d in deltas:
        val = _gl_panels(f, math.log(d), 0.0, panels=24)
        out.append((d, val))
    return out


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
