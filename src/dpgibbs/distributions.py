"""Random variate generation for the samplers in this package.

Everything here is a pure function of its arguments and an explicit
``numpy.random.Generator``; identical (seed, parameters) give identical
draw sequences.  Where possible draws are produced by inverse-CDF so the
output is a deterministic transform of the uniform stream.

The kernels take plain floats and check them with inline comparisons,
raising ValueError on bad arguments; a truncation window is the pair
(lo, hi], either end possibly infinite.  This module owns the
distribution formulas only: the model's conditionals live in gibbs.py
and the feasibility windows they truncate to in feasible.py.

The scalar kernels take their special functions from
scipy.special.cython_special: the same C routines as the scipy.special
ufuncs, with the same bits, but without the ufunc dispatch that costs
about 1-3 us per scalar call, and returning float rather than
numpy.float64.  ndtr stays on the ufunc, which is as fast for it.

The centrepiece is the truncated gamma mixture (TGM), the distribution
of a gamma-distributed quantity observed through additive two-sided
exponential noise: shape alpha, central rate beta, noise rate lam and
observation tau, with alpha > 0 and beta > lam >= 0.  Its mixture
weights are computed in log space (``_tgm_log_weights``, also used by
evidence.py) to survive the large ``exp(lam * tau)`` factors that appear
in the weight formulas.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random import Generator
from scipy import special as sc
from scipy.special import cython_special as cs

from .errors import SamplingError

_LOG_EPS = 1e-17  # relative series cutoff for log incomplete-gamma fallbacks
_TAIL_Z = 6.0  # standardized distance beyond which normal tails use rejection
_MIN_WINDOW_MASS = 1e-12


def _log_reg_inc_gamma_lower(a: float, x: float) -> float:
    """log of the regularized lower incomplete gamma, robust to underflow."""
    if x <= 0.0:
        return -math.inf
    v = cs.gammainc(a, x)
    if v > 0.0:
        return math.log(v)
    # Far left tail: gamma(a,x) = x^a e^-x sum_k x^k / (a (a+1) ... (a+k))
    term = 1.0 / a
    total = term
    k = 1
    while k < 1000:
        term *= x / (a + k)
        total += term
        if term < total * _LOG_EPS:
            break
        k += 1
    return a * math.log(x) - x + math.log(total) - cs.gammaln(a)


def _log_reg_inc_gamma_upper(a: float, x: float) -> float:
    """log of the regularized upper incomplete gamma, robust to underflow."""
    if x <= 0.0:
        return 0.0
    v = cs.gammaincc(a, x)
    if v > 0.0:
        return math.log(v)
    # Far right tail: Gamma(a,x) ~ x^(a-1) e^-x [1 + (a-1)/x + ...]
    term = 1.0
    total = term
    k = 1
    while k < 60:
        factor = (a - k) / x
        if abs(factor) >= 1.0:
            break  # asymptotic series no longer decreasing
        term *= factor
        total += term
        if abs(term) < abs(total) * _LOG_EPS:
            break
        k += 1
    return (a - 1.0) * math.log(x) - x + math.log(max(total, _LOG_EPS)) - cs.gammaln(a)


def _check_tgm(alpha: float, beta: float, lam: float, tau: float):
    if not (0.0 < alpha < math.inf and 0.0 <= lam < beta < math.inf
            and math.isfinite(tau)):
        raise ValueError("TGM parameters must be finite with alpha > 0 and "
                         "beta > lam >= 0")


def _tgm_log_weights(alpha: float, beta: float, lam: float, tau: float,
                     upper: float) -> tuple[float, float]:
    """Unnormalized log mixture weights for the TGM on (0, upper].

    Requires 0 < tau < upper.  The second component's mass is restricted
    to (tau, upper].
    """
    a = alpha
    lo_rate = beta - lam
    hi_rate = beta + lam
    log_w1 = (
        -lam * tau
        + _log_reg_inc_gamma_lower(a, lo_rate * tau)
        + cs.gammaln(a)
        - a * math.log(lo_rate)
    )
    if math.isinf(upper):
        log_mass2 = _log_reg_inc_gamma_upper(a, hi_rate * tau)
    else:
        q_tau = _log_reg_inc_gamma_upper(a, hi_rate * tau)
        q_up = _log_reg_inc_gamma_upper(a, hi_rate * upper)
        if q_up >= q_tau:
            log_mass2 = -math.inf
        else:
            # log(e^q_tau - e^q_up) without cancellation
            log_mass2 = q_tau + math.log1p(-math.exp(q_up - q_tau))
    log_w2 = lam * tau + log_mass2 + cs.gammaln(a) - a * math.log(hi_rate)
    return log_w1, log_w2


def _first_weight(d: float) -> float:
    """1 / (1 + e^d): the first component's weight when d = log w2 - log w1."""
    if d > 0:
        return math.exp(-math.log1p(math.exp(-d)) - d)
    return 1.0 / (1.0 + math.exp(d))


def tgm_weights(alpha: float, beta: float, lam: float, tau: float) -> tuple[float, float]:
    """Mixture weights (pi1, pi2) of the TGM for tau > 0.

    pi1 weighs the rate beta-lam component on (0, tau]; pi2 weighs the
    rate beta+lam component on (tau, inf).  Computed in log space; the
    pair sums to one.
    """
    _check_tgm(alpha, beta, lam, tau)
    if tau <= 0:
        raise ValueError("tgm_weights requires tau > 0; the tau <= 0 case is a plain gamma")
    log_w1, log_w2 = _tgm_log_weights(alpha, beta, lam, tau, math.inf)
    if log_w1 == -math.inf and log_w2 == -math.inf:
        raise SamplingError("TGM weights underflowed on both components",
                            {"params": (alpha, beta, lam, tau)})
    pi1 = _first_weight(log_w2 - log_w1)
    return pi1, 1.0 - pi1


def tgm_pdf(alpha: float, beta: float, lam: float, tau: float, x: float) -> float:
    """Density of the TGM at x > 0."""
    _check_tgm(alpha, beta, lam, tau)
    if not x > 0:
        raise ValueError("tgm_pdf requires x > 0")
    a = alpha
    if tau <= 0:
        rate = beta + lam
        logpdf = a * math.log(rate) - cs.gammaln(a) + (a - 1.0) * math.log(x) - rate * x
        return math.exp(logpdf)
    pi1, pi2 = tgm_weights(alpha, beta, lam, tau)
    if x <= tau:
        rate = beta - lam
        log_norm = cs.gammaln(a) + _log_reg_inc_gamma_lower(a, rate * tau)
        pi = pi1
    else:
        rate = beta + lam
        log_norm = cs.gammaln(a) + _log_reg_inc_gamma_upper(a, rate * tau)
        pi = pi2
    if pi == 0.0:
        return 0.0
    logpdf = (
        math.log(pi)
        + a * math.log(rate)
        - log_norm
        + (a - 1.0) * math.log(x)
        - rate * x
    )
    return math.exp(logpdf)


def _trunc_gamma_right_tail(shape: float, rate: float, lo: float, hi: float,
                            rng: Generator, budget: int = 1000) -> float:
    """Rejection sampler for a gamma restricted far into its right tail."""
    rate_p = rate - (shape - 1.0) / lo if shape > 1.0 else rate
    if rate_p <= 0:
        raise SamplingError(
            "gamma right-tail sampler needs the window beyond the mode",
            {"shape": shape, "rate": rate, "lo": lo, "hi": hi},
        )
    for _ in range(budget):
        x = lo + rng.exponential(1.0 / rate_p)
        if x > hi:
            continue
        if shape == 1.0:
            return x
        log_accept = (shape - 1.0) * (math.log(x / lo) - (x - lo) / lo) if shape > 1.0 \
            else (shape - 1.0) * math.log(x / lo)
        if math.log(rng.random()) < log_accept:
            return x
    raise SamplingError(
        "gamma right-tail rejection exhausted its retry budget",
        {"shape": shape, "rate": rate, "lo": lo, "hi": hi, "budget": budget},
    )


def _trunc_gamma_left_tail(shape: float, rate: float, lo: float, hi: float,
                           rng: Generator, budget: int = 1000) -> float:
    """Rejection sampler for a gamma restricted far into its left tail.

    Valid when the density is increasing on the window (mode beyond hi);
    proposes hi - Exp(rate_p) and accepts against the exact density.
    """
    rate_p = (shape - 1.0) / hi - rate
    if rate_p <= 0:
        raise SamplingError(
            "gamma left-tail sampler needs the window below the mode",
            {"shape": shape, "rate": rate, "lo": lo, "hi": hi},
        )
    width = hi - lo
    for _ in range(budget):
        y = rng.exponential(1.0 / rate_p)
        if y >= width:
            continue
        t = y / hi
        log_accept = (shape - 1.0) * (math.log1p(-t) + t)
        if math.log(rng.random()) < log_accept:
            return hi - y
    raise SamplingError(
        "gamma left-tail rejection exhausted its retry budget",
        {"shape": shape, "rate": rate, "lo": lo, "hi": hi, "budget": budget},
    )


def sample_trunc_gamma(shape: float, rate: float, lo: float, hi: float,
                       rng: Generator) -> float:
    """Draw from Gamma(shape, rate) conditioned on (lo, hi], 0 <= lo.

    Primary method is inverse-CDF on the regularized incomplete gamma,
    switching between lower- and upper-tail coordinates to keep
    precision; windows carrying less than ~1e-12 of the mass fall back to
    tail-specific rejection samplers.
    """
    if not (0.0 < shape < math.inf and 0.0 < rate < math.inf):
        raise ValueError("sample_trunc_gamma requires finite positive shape and rate")
    if not lo < hi:
        raise ValueError("truncation window requires lo < hi")
    if lo < 0:
        raise ValueError("gamma truncation window must have lower >= 0")

    xlo = rate * lo
    xhi = rate * hi if math.isfinite(hi) else math.inf
    flo = cs.gammainc(shape, xlo) if xlo > 0 else 0.0
    qlo = cs.gammaincc(shape, xlo) if xlo > 0 else 1.0
    if math.isfinite(hi):
        fhi = cs.gammainc(shape, xhi)
        qhi = cs.gammaincc(shape, xhi)
    else:
        fhi, qhi = 1.0, 0.0
    mass = max(fhi - flo, qlo - qhi)

    if mass >= _MIN_WINDOW_MASS:
        u = rng.random()
        p = flo + u * mass
        if p <= 0.5:
            x = cs.gammaincinv(shape, p) / rate
        else:
            q = qlo - u * mass
            x = cs.gammainccinv(shape, max(q, 0.0)) / rate
    elif flo >= 0.5:
        x = _trunc_gamma_right_tail(shape, rate, lo, hi, rng)
    elif qhi >= 0.5 and math.isfinite(hi):
        x = _trunc_gamma_left_tail(shape, rate, lo, hi, rng)
    else:
        raise SamplingError(
            "truncated gamma window has numerically zero mass",
            {"shape": shape, "rate": rate, "lo": lo, "hi": hi, "mass": mass},
        )

    # Window is (lo, hi]: keep draws strictly above lo and within hi.
    if x <= lo:
        x = math.nextafter(lo, math.inf)
    if x > hi:
        x = hi
    return x


def sample_tgm(alpha: float, beta: float, lam: float, tau: float, upper: float,
               rng: Generator) -> float:
    """Draw from the TGM restricted to (0, upper].

    Branches: tau <= 0 gives a (truncated) Gamma(alpha, beta + lam);
    tau >= upper gives Gamma(alpha, beta - lam) truncated to the window;
    otherwise one of the two mixture components is selected by its
    truncation-adjusted weight and drawn from its own window.
    """
    _check_tgm(alpha, beta, lam, tau)
    if not upper > 0:
        raise ValueError("sample_tgm requires upper > 0")

    if tau <= 0:
        return sample_trunc_gamma(alpha, beta + lam, 0.0, upper, rng)
    if tau >= upper:
        return sample_trunc_gamma(alpha, beta - lam, 0.0, upper, rng)

    log_w1, log_w2 = _tgm_log_weights(alpha, beta, lam, tau, upper)
    if log_w1 == -math.inf and log_w2 == -math.inf:
        raise SamplingError("TGM window has numerically zero mass",
                            {"params": (alpha, beta, lam, tau), "upper": upper})
    # Component 1 with probability w1/(w1+w2); w2 == 0 forces component 1,
    # mirroring the overflow-to-component-1 convention of the ratio test.
    # Either infinite d decides without consuming a uniform.
    d = log_w2 - log_w1
    if d == -math.inf:
        take_first = True
    elif d == math.inf:
        take_first = False
    else:
        take_first = rng.random() <= _first_weight(d)
    if take_first:
        return sample_trunc_gamma(alpha, beta - lam, 0.0, tau, rng)
    return sample_trunc_gamma(alpha, beta + lam, tau, upper, rng)


def _trunc_normal_tail(a: float, b: float, rng: Generator, budget: int = 10000) -> float:
    """Robert's exponential-proposal sampler for a standard normal on [a, b], a >= 0."""
    lam = (a + math.sqrt(a * a + 4.0)) / 2.0
    for _ in range(budget):
        z = a + rng.exponential(1.0 / lam)
        if z > b:
            continue
        diff = z - lam
        if math.log(rng.random()) < -0.5 * diff * diff:
            return z
    raise SamplingError("truncated normal tail rejection exhausted its budget",
                        {"a": a, "b": b, "budget": budget})


def _normal_window(mean: float, sd: float, lo: float, hi: float):
    """Standardized window (a, b) of N(mean, sd^2) on [lo, hi], and its masses.

    (pa, qa, mass): Phi(a), Phi(-a) and the mass in whichever tail coordinate
    keeps precision; None for a window more than ~6 sd from the mean.
    """
    if sd <= 0 or not math.isfinite(sd):
        raise ValueError("sample_trunc_normal requires sd > 0")
    if not lo < hi:
        raise ValueError("truncation window requires lo < hi")
    a = (lo - mean) / sd if math.isfinite(lo) else -math.inf
    b = (hi - mean) / sd if math.isfinite(hi) else math.inf
    if a >= _TAIL_Z or b <= -_TAIL_Z:
        return a, b, None
    pa = float(sc.ndtr(a)) if math.isfinite(a) else 0.0
    pb = float(sc.ndtr(b)) if math.isfinite(b) else 1.0
    qa = float(sc.ndtr(-a)) if math.isfinite(a) else 1.0
    qb = float(sc.ndtr(-b)) if math.isfinite(b) else 0.0
    mass = max(pb - pa, qa - qb)
    if mass <= 0.0:
        raise SamplingError("truncated normal window has numerically zero mass",
                            {"mean": mean, "sd": sd, "lo": lo, "hi": hi})
    return a, b, (pa, qa, mass)


def sample_trunc_normal(mean: float, sd: float, lo: float, hi: float,
                        rng: Generator) -> float:
    """Draw from N(mean, sd^2) conditioned on [lo, hi].

    Inverse-CDF in whichever tail coordinate keeps precision; windows
    lying more than ~6 sd from the mean use a one-sided
    exponential-proposal rejection sampler.
    """
    a, b, masses = _normal_window(mean, sd, lo, hi)
    if masses is None:
        z = _trunc_normal_tail(a, b, rng) if a >= _TAIL_Z else -_trunc_normal_tail(-b, -a, rng)
    else:
        pa, qa, mass = masses
        u = rng.random()
        p = pa + u * mass
        if p <= 0.5:
            z = cs.ndtri(p)
        else:
            z = -cs.ndtri(max(qa - u * mass, 0.0))

    x = mean + sd * z
    if x < lo:
        x = lo
    elif x > hi:
        x = hi
    return x


def sample_trunc_normal_block(mean: float, sd: float, lo: float, hi: float, size: int,
                              rng: Generator) -> np.ndarray:
    """The floats of ``size`` calls of sample_trunc_normal on ``rng``, as one array.

    random(size) yields the doubles of size random() calls and the ndtri ufunc
    has the bits of cs.ndtri.  Tail windows loop the scalar kernel.
    """
    _, _, masses = _normal_window(mean, sd, lo, hi)
    if masses is None:
        return np.array([sample_trunc_normal(mean, sd, lo, hi, rng) for _ in range(size)])
    pa, qa, mass = masses
    u_mass = rng.random(size) * mass
    p = pa + u_mass
    high = ~(p <= 0.5)
    z = sc.ndtri(np.where(high, np.maximum(qa - u_mass, 0.0), p))
    np.negative(z, out=z, where=high)
    x = mean + sd * z
    # Masked stores, not np.clip, which would turn a -0.0 at lo = 0.0 into 0.0.
    x[x < lo] = lo
    x[x > hi] = hi
    return x


def sample_inverse_gaussian(mean: float, shape: float, rng: Generator) -> float:
    """Draw from the inverse-Gaussian law with the given mean and shape.

    Michael/Schucany/Haas transformation: one squared normal, one
    uniform.  Mean of the law is ``mean``; variance is mean^3/shape.
    """
    if not (math.isfinite(mean) and math.isfinite(shape)) or mean <= 0 or shape <= 0:
        raise ValueError("sample_inverse_gaussian requires finite positive mean and shape")
    nu = rng.standard_normal()
    t = (mean / shape) * nu * nu
    # Conjugate form of 1 + t/2 - sqrt(t + t^2/4): exact and strictly positive.
    x1 = mean / (1.0 + 0.5 * t + math.sqrt(t + 0.25 * t * t))
    if rng.random() <= mean / (mean + x1):
        return x1
    return mean * mean / x1


def sample_laplace(loc: float, scale: float, rng: Generator) -> float:
    """Inverse-CDF draw from Lap(loc, scale)."""
    if scale <= 0 or not math.isfinite(scale):
        raise ValueError("sample_laplace requires scale > 0")
    u = rng.random() - 0.5
    return loc - scale * math.copysign(math.log1p(-2.0 * abs(u)), u)
