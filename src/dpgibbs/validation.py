"""Self-contained numerical checks behind the `validate` CLI command.

Each check pits a closed form against an independent numerical route:
the flat-prior evidence against nested quadrature, the divergence
witness against its logarithmic growth bound, the credible/pivotal
interval identity, and the TGM sampler against its gamma collapse and
against an importance-sampling construction of the same posterior.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sc

from .distributions import sample_tgm
from .evidence import (
    flat_evidence_quadrature,
    jeffreys_divergence_scan,
    laplace_uniform_matching,
)
from .release import FORMAT_VERSION

EVIDENCE_GRID = {
    "n": (5, 10, 20),
    "eps2": (0.1, 1.0),
    "s2_star": (-0.05, 0.0, 0.04, 0.2),
}


def ks_distance(samples, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a CDF callable."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    upper = np.abs(np.arange(1, n + 1) / n - f)
    lower = np.abs(np.arange(0, n) / n - f)
    return float(max(upper.max(), lower.max()))


def weighted_ecdf_sup_distance(sample: np.ndarray, points: np.ndarray,
                               weights: np.ndarray) -> float:
    """Sup distance between a plain ECDF and a weighted ECDF."""
    sample = np.sort(np.asarray(sample, dtype=float))
    order = np.argsort(points)
    pts = points[order]
    w = weights[order]
    wcdf = np.cumsum(w)
    wcdf /= wcdf[-1]
    grid = np.unique(np.concatenate([sample, pts]))
    f_sample = np.searchsorted(sample, grid, side="right") / sample.size
    idx = np.searchsorted(pts, grid, side="right")
    f_weighted = np.where(idx > 0, wcdf[np.minimum(idx, pts.size) - 1], 0.0)
    f_weighted = np.where(idx == 0, 0.0, f_weighted)
    return float(np.abs(f_sample - f_weighted).max())


def check_evidence_grid(rel_err_tol: float = 1e-3) -> list[dict]:
    """Flat-prior evidence: quadrature vs closed form on the 24-point grid."""
    checks = []
    for n in EVIDENCE_GRID["n"]:
        for eps2 in EVIDENCE_GRID["eps2"]:
            for s2_star in EVIDENCE_GRID["s2_star"]:
                rep = flat_evidence_quadrature(s2_star, n, 0.1, eps2)
                checks.append({
                    "name": f"flat_evidence(n={n},eps2={eps2},s2_star={s2_star})",
                    "rel_err": rep.rel_err,
                    "passed": bool(rep.rel_err < rel_err_tol),
                })
    return checks


def check_divergence_growth(n: int = 10, eps2: float = 0.1) -> list[dict]:
    """Divergence witness grows at least like 0.9 c log(1/delta)."""
    deltas = (1e-2, 1e-4, 1e-6)
    k = (n - 1.0) / (2.0 * eps2 * n)
    c = eps2 * n / 2.0 * (k / (k + 1.0)) ** ((n - 1.0) / 2.0)
    checks = []
    for delta, integral in jeffreys_divergence_scan(n, eps2, deltas):
        bound = 0.9 * c * math.log(1.0 / delta)
        checks.append({
            "name": f"divergence_growth(delta={delta:g})",
            "rel_err": integral / (c * math.log(1.0 / delta)),
            "passed": bool(integral >= bound),
        })
    return checks


def check_matching(cases: int = 100, seed: int = 90210) -> list[dict]:
    """Credible equals pivotal confidence interval, 1e-12, on random cases."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        lam = float(rng.uniform(0.05, 20.0))
        x = float(rng.normal(0.0, 50.0))
        alpha = float(rng.uniform(0.005, 0.5))
        rep = laplace_uniform_matching(lam, x, alpha)
        worst = max(worst, rep["max_endpoint_diff"])
    return [{
        "name": f"laplace_uniform_matching({cases} cases)",
        "rel_err": worst,
        "passed": bool(worst <= 1e-12),
    }]


def _gamma_cdf(shape: float, rate: float):
    return lambda x: sc.gammainc(shape, rate * np.asarray(x))


def check_tgm_lambda0(draws: int = 100_000, seed: int = 515) -> list[dict]:
    """With lam = 0 the TGM is a plain gamma."""
    rng = np.random.default_rng(seed)
    alpha, beta = 3.0, 2.0
    x = np.array([sample_tgm(alpha, beta, 0.0, 0.7, math.inf, rng)
                  for _ in range(draws)])
    ks = ks_distance(x, _gamma_cdf(alpha, beta))
    return [{"name": "tgm_lambda0_collapse", "rel_err": ks, "passed": bool(ks < 0.01)}]


def check_tgm_posterior_oracle(draws: int = 150_000, seed: int = 99) -> list[dict]:
    """TGM draws match the gamma-prior/Laplace-noise posterior they represent.

    Importance sampling: gamma draws weighted by the Laplace likelihood
    of the observation form a weighted ECDF that the sampler must track.
    """
    alpha, beta, lam, tau = 2.0, 2.0, 1.0, 1.0
    rng = np.random.default_rng(seed)
    x = np.array([sample_tgm(alpha, beta, lam, tau, math.inf, rng)
                  for _ in range(draws)])
    prior = rng.gamma(shape=alpha, scale=1.0 / beta, size=draws)
    logw = -lam * np.abs(tau - prior)
    w = np.exp(logw - logw.max())
    sup = weighted_ecdf_sup_distance(x, prior, w)
    return [{"name": "tgm_importance_oracle", "rel_err": sup,
             "passed": bool(sup < 0.02)}]


def run_validation() -> dict:
    """Full check suite as a JSON-ready report."""
    checks = []
    checks += check_evidence_grid()
    checks += check_divergence_growth()
    checks += check_matching()
    checks += check_tgm_lambda0()
    checks += check_tgm_posterior_oracle()
    return {
        "format_version": FORMAT_VERSION,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
