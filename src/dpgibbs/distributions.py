"""Random variate generation for the samplers in this package.

Everything here is a pure function of its arguments and an explicit
``numpy.random.Generator``; identical (seed, parameters) give identical
draw sequences.  Draws are produced by inverse-CDF, so the output is a
deterministic transform of the uniform stream.  The truncated normal and
the truncated gamma are inverse-CDF everywhere: each draw takes one
uniform, whatever the window, and in a far tail the CDF is inverted in
log space.

The kernels take plain floats and check them with inline comparisons,
raising ValueError on bad arguments; a truncation window is the pair
(lo, hi], either end possibly infinite.  This module owns the
distribution formulas only: the model's conditionals live in gibbs.py
and the feasibility windows they truncate to in feasible.py.

The scalar kernels take their special functions from
scipy.special.cython_special: the same C routines as the scipy.special
ufuncs, with the same bits, but without the ufunc dispatch that costs
about 1-3 us per scalar call, and returning float rather than
numpy.float64.

The centrepiece is the truncated gamma mixture (TGM), the distribution
of a gamma-distributed quantity observed through additive two-sided
exponential noise: shape alpha, central rate beta, noise rate lam and
observation tau, with alpha > 0 and beta > lam >= 0.  Its mixture
weights are computed in log space (``_tgm_log_weights``, used by
``sample_tgm`` and by the test oracles) to survive the large
``exp(lam * tau)`` factors that appear in the weight formulas; the chosen
component's draw reuses the incomplete gammas they read.  Where scipy's
incomplete gammas underflow, Kummer's function or a continued fraction
takes over.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from numpy.random import Generator
from scipy import special as sc
from scipy.special import cython_special as cs

from .errors import SamplingError

# log Q's continued fraction: term budget, stopping step, floor on Lentz denominators
_CF_TERMS, _CF_TOL, _CF_TINY = 100, 1e-15, 1e-300
_MIN_WINDOW_MASS = 1e-12
# Newton on a gamma tail's log CDF: step budget, stopping step relative to x
_NEWTON_STEPS, _NEWTON_TOL = 50, 1e-12
_TINY, _HUGE = 5e-324, sys.float_info.max  # the positive doubles' range
_UNIFORM_BLOCK = 4096  # doubles a UniformBlock draws at a time

# Double specializations of cython_special's fused functions, bound once so
# that a call skips the fused signature dispatch.
_log_ndtr = cs.log_ndtr.__signatures__["double"]
_log1p = cs.log1p.__signatures__["double"]
_expm1 = cs.expm1.__signatures__["double"]
_expit = cs.expit.__signatures__["double"]
_hyp1f1 = cs.hyp1f1.__signatures__["double"]


def _log_reg_inc_gamma_lower(a: float, x: float, p: float | None = None) -> float:
    """log P(a, x), from p = P(a, x) where the caller holds it; robust to underflow:
    where P is 0, Kummer's form x^a e^-x M(1, a + 1, x) / Gamma(a + 1)
    (Abramowitz & Stegun 6.5.12, 13.1.2)."""
    if x <= 0.0:
        return -math.inf
    v = cs.gammainc(a, x) if p is None else p
    if v > 0.0:
        return math.log(v)
    return a * math.log(x) - x - cs.gammaln(a + 1.0) + math.log(_hyp1f1(1.0, a + 1.0, x))


def _log_reg_inc_gamma_upper(a: float, x: float, q: float | None = None) -> float:
    """log Q(a, x), from q = Q(a, x) where the caller holds it; robust to underflow:
    where Q is 0, so x > a + 1, Legendre's continued fraction
    Gamma(a, x) = x^a e^-x / (x + 1 - a - 1 (1 - a) / (x + 3 - a - ...))
    by modified Lentz (Numerical Recipes, 3rd ed., 6.2)."""
    if not 0.0 < x < math.inf:
        return 0.0 if x <= 0.0 else -math.inf
    v = cs.gammaincc(a, x) if q is None else q
    if v > 0.0:
        return math.log(v)
    b, c = x + 1.0 - a, 1.0 / _CF_TINY
    d = h = 1.0 / b
    for i in range(1, _CF_TERMS):
        an, b = i * (a - i), b + 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
        c = b + an / c
        c = c if abs(c) > _CF_TINY else _CF_TINY
        h *= d * c
        if abs(d * c - 1.0) < _CF_TOL:
            return a * math.log(x) - x - cs.gammaln(a) + math.log(h)
    raise SamplingError("continued fraction for log Q(a, x) did not converge",
                        {"a": a, "x": x, "terms": _CF_TERMS})


def _check_tgm(alpha: float, beta: float, lam: float, tau: float):
    if not (0.0 < alpha < math.inf and 0.0 <= lam < beta < math.inf
            and math.isfinite(tau)):
        raise ValueError("TGM parameters must be finite with alpha > 0 and "
                         "beta > lam >= 0")


def _tgm_log_weights(alpha: float, beta: float, lam: float, tau: float,
                     upper: float) -> tuple[float, float, tuple[float, float, float]]:
    """Unnormalized log mixture weights of the TGM on (0, upper], 0 < tau < upper, with
    the incomplete gammas they read, (P(alpha, (beta - lam) tau), Q(alpha, (beta + lam)
    tau), Q(alpha, (beta + lam) upper)), which the chosen component's window reuses.
    The second component's mass is restricted to (tau, upper].
    """
    a, lo_rate, hi_rate = alpha, beta - lam, beta + lam
    p_tau, q_tau, q_up = (cs.gammainc(a, lo_rate * tau), cs.gammaincc(a, hi_rate * tau),
                          cs.gammaincc(a, hi_rate * upper))
    log_w1 = (-lam * tau + _log_reg_inc_gamma_lower(a, lo_rate * tau, p_tau) + cs.gammaln(a)
              - a * math.log(lo_rate))
    lq_tau = _log_reg_inc_gamma_upper(a, hi_rate * tau, q_tau)
    lq_up = _log_reg_inc_gamma_upper(a, hi_rate * upper, q_up)
    # log(e^lq_tau - e^lq_up) without cancellation
    log_mass2 = -math.inf if lq_up >= lq_tau else lq_tau + math.log1p(-math.exp(lq_up - lq_tau))
    log_w2 = lam * tau + log_mass2 + cs.gammaln(a) - a * math.log(hi_rate)
    return log_w1, log_w2, (p_tau, q_tau, q_up)


def _invert_tail(window: tuple, rng: Generator) -> float:
    """x in a _draw_trunc_gamma window with under _MIN_WINDOW_MASS, from one uniform u:
    log F(rate x) = t = log F(near) + log1p(u expm1(log F(far) - log F(near))), with
    F = Q and near = lo above the median, F = P and near = hi below it.

    Newton in s = log(rate x) from near.  log F is concave in s (the density of log x
    is log-concave; Bagnoli & Bergstrom, Econ. Theory 26, 2005), so the first step
    overshoots the root and the later ones approach it with log F below t.  Iterates
    stay in the window and in the doubles' range.  The loop ends once x moves by at
    most _NEWTON_TOL relative, or once log F reaches t, as rounding in log F (worse at
    large shapes) or in a subnormal x can make it first.
    """
    shape, rate, lo, hi, flo, qlo, fhi, qhi = window
    if flo >= 0.5:
        log_f, sign, near, far = _log_reg_inc_gamma_upper, -1.0, (rate * lo, qlo), (rate * hi, qhi)
    else:
        log_f, sign, near, far = _log_reg_inc_gamma_lower, 1.0, (rate * hi, fhi), (rate * lo, flo)
    f, f_far = log_f(shape, *near), log_f(shape, *far)
    info = {"shape": shape, "rate": rate, "lo": lo, "hi": hi}
    if not (f_far < f and (flo >= 0.5 or qhi >= 0.5)):  # equal ends, or straddling the median
        raise SamplingError("truncated gamma window has numerically zero mass", info)
    t = f + _log1p(rng.random() * _expm1(f_far - f))
    x, s = near[0], math.log(near[0])
    s_min, s_max = sorted((s, math.log(min(max(far[0], _TINY), _HUGE))))
    log_norm = cs.gammaln(shape)
    for _ in range(_NEWTON_STEPS):
        step = sign * (t - f) / math.exp(shape * s - x - log_norm - f)  # (t - f) / (log F)'
        s = min(max(s + step, s_min), s_max)
        x, last = math.exp(s), x
        if abs(x - last) <= _NEWTON_TOL * x or (f := log_f(shape, x)) >= t:
            return x / rate
    raise SamplingError("Newton's method on the gamma tail CDF did not converge",
                        {**info, "t": t, "s": s, "steps": _NEWTON_STEPS})


def _draw_trunc_gamma(window: tuple, rng: Generator) -> float:
    """One variate of Gamma(shape, rate) on (lo, hi] from one uniform, given the window
    (shape, rate, lo, hi, P(rate lo), Q(rate lo), P(rate hi), Q(rate hi)): inverse CDF on
    the regularized incomplete gamma, in the lower- or upper-tail coordinate to keep
    precision."""
    shape, rate, lo, hi, flo, qlo, fhi, qhi = window
    mass = qlo - qhi if qlo - qhi > fhi - flo else fhi - flo  # max(), without its call cost
    if mass < _MIN_WINDOW_MASS:
        x = _invert_tail(window, rng)
    elif (p := flo + (u := rng.random()) * mass) <= 0.5:
        x = cs.gammaincinv(shape, p) / rate
    else:
        x = cs.gammainccinv(shape, max(qlo - u * mass, 0.0)) / rate
    # Window is (lo, hi]: keep draws strictly above lo and within hi.
    return math.nextafter(lo, math.inf) if x <= lo else (hi if x > hi else x)


def sample_trunc_gamma(shape: float, rate: float, lo: float, hi: float,
                       rng: Generator) -> float:
    """Draw from Gamma(shape, rate) conditioned on (lo, hi], 0 <= lo, from one uniform."""
    if not (0.0 < shape < math.inf and 0.0 < rate < math.inf):
        raise ValueError("sample_trunc_gamma requires finite positive shape and rate")
    if not lo < hi:
        raise ValueError("truncation window requires lo < hi")
    if lo < 0:
        raise ValueError("gamma truncation window must have lower >= 0")
    xlo, xhi = rate * lo, rate * hi
    window = (shape, rate, lo, hi, cs.gammainc(shape, xlo), cs.gammaincc(shape, xlo),
              cs.gammainc(shape, xhi), cs.gammaincc(shape, xhi))
    return _draw_trunc_gamma(window, rng)


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

    log_w1, log_w2, (p_tau, q_tau, q_up) = _tgm_log_weights(alpha, beta, lam, tau, upper)
    if log_w1 == -math.inf and log_w2 == -math.inf:
        raise SamplingError("TGM window has numerically zero mass",
                            {"params": (alpha, beta, lam, tau), "upper": upper})
    # Component 1 with probability w1/(w1+w2); w2 == 0 forces component 1,
    # mirroring the overflow-to-component-1 convention of the ratio test.
    # Either infinite d decides without consuming a uniform.
    d = log_w2 - log_w1
    take_first = d == -math.inf or (d != math.inf and rng.random() <= _expit(-d))
    if take_first:  # the chosen window, with P = 0 and Q = 1 at x = 0 as scipy has them
        rate = beta - lam
        window = (alpha, rate, 0.0, tau, 0.0, 1.0, p_tau, cs.gammaincc(alpha, rate * tau))
    else:
        rate = beta + lam
        window = (alpha, rate, tau, upper, cs.gammainc(alpha, rate * tau), q_tau,
                  cs.gammainc(alpha, rate * upper), q_up)
    return _draw_trunc_gamma(window, rng)


def normal_window(mean: float, sd: float, lo: float, hi: float) -> tuple[float, float, float]:
    """(sign, log Phi(a), log Phi(b)) for N(mean, sd^2) on [lo, hi], standardized to [a, b].

    A window with a > 0 is mirrored to [-b, -a], with sign -1, so that
    both ends lie on the side of 0 where log_ndtr keeps full precision.
    """
    if sd <= 0 or not math.isfinite(sd):
        raise ValueError("sample_trunc_normal requires sd > 0")
    if not lo < hi:
        raise ValueError("truncation window requires lo < hi")
    a, b, sign = (lo - mean) / sd, (hi - mean) / sd, 1.0
    if a > 0.0:
        a, b, sign = -b, -a, -1.0
    la, lb = _log_ndtr(a), _log_ndtr(b)
    if not la < lb:
        raise SamplingError("truncated normal window has numerically zero mass",
                            {"mean": mean, "sd": sd, "lo": lo, "hi": hi})
    return sign, la, lb


def sample_trunc_normal(mean: float, sd: float, lo: float, hi: float,
                        rng: Generator) -> float:
    """Draw from N(mean, sd^2) conditioned on [lo, hi], from one uniform u.

    Inverse CDF in log space on normal_window's [a, b], however far into
    a tail: z = ndtri_exp(log Phi(b) + log1p(u expm1(log Phi(a) - log Phi(b)))).
    """
    sign, la, lb = normal_window(mean, sd, lo, hi)
    z = cs.ndtri_exp(lb + _log1p(rng.random() * _expm1(la - lb)))
    x = mean + sign * sd * z
    if x < lo:
        x = lo
    elif x > hi:
        x = hi
    return x


def sample_trunc_normal_block(mean: float, sd: float, lo: float, hi: float, size: int,
                              rng: Generator) -> np.ndarray:
    """The floats of ``size`` calls of sample_trunc_normal on ``rng``, as one array.

    random(size) yields the doubles of size random() calls, and the
    scipy.special ufuncs have the bits of their cython_special forms
    (numpy's own log1p may not).
    """
    sign, la, lb = normal_window(mean, sd, lo, hi)
    z = sc.ndtri_exp(lb + sc.log1p(rng.random(size) * _expm1(la - lb)))
    x = mean + sign * sd * z
    # Masked stores, not np.clip, which would turn a -0.0 at lo = 0.0 into 0.0.
    x[x < lo] = lo
    x[x > hi] = hi
    return x


def sample_inverse_gaussian(mean: float, shape: float, rng: Generator) -> float:
    """Draw from the inverse-Gaussian law with the given mean and shape.

    Michael/Schucany/Haas transformation: one squared normal, one
    uniform.  Mean of the law is ``mean``; variance is mean^3/shape.  Where
    a root over- or underflows, x1 is shape / nu^2 (to a factor 1 + O(1/t))
    and x2 is mean (mean / x1), capped at the largest double.
    """
    if not (math.isfinite(mean) and math.isfinite(shape)) or mean <= 0 or shape <= 0:
        raise ValueError("sample_inverse_gaussian requires finite positive mean and shape")
    nu = rng.standard_normal()
    t = (mean / shape) * nu * nu
    # Conjugate form of 1 + t/2 - sqrt(t + t^2/4): exact and strictly positive.
    x1 = mean / (1.0 + 0.5 * t + math.sqrt(t + 0.25 * t * t))
    if not x1 > 0.0:  # t * t, or t, overflowed (t is NaN only for nu = 0, so t = 0)
        x1 = shape / nu / nu if nu else mean
    if rng.random() <= mean / (mean + x1):
        return x1
    x2 = mean * mean / x1
    return x2 if 0.0 < x2 < math.inf else min(mean * (mean / x1), _HUGE)


class UniformBlock:
    """A Generator's random() doubles, drawn a block at a time and read in order.

    Stands in for the Generator in the scalar kernels, at a fraction of the
    cost per call; standard_normal() is ndtri(u), skipping a zero u.  The
    kernels read nothing else from it.
    """

    __slots__ = ("random",)

    def __init__(self, rng: Generator):
        def stream():
            while True:
                yield from rng.random(_UNIFORM_BLOCK).tolist()

        self.random = stream().__next__

    def standard_normal(self) -> float:
        u = self.random()
        return cs.ndtri(u) if u > 0.0 else self.standard_normal()


def sample_laplace(loc: float, scale: float, rng: Generator) -> float:
    """Inverse-CDF draw from Lap(loc, scale)."""
    if scale <= 0 or not math.isfinite(scale):
        raise ValueError("sample_laplace requires scale > 0")
    u = rng.random() - 0.5
    return loc - scale * math.copysign(math.log1p(-2.0 * abs(u)), u)
