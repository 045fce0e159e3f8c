"""Chain summaries: HPD intervals, KDE posterior mode, coverage aggregation.

These mirror the conventions of the usual R tooling: the HPD interval is
the shortest window of ceil(mass * T) consecutive order statistics, and
the mode is the argmax of a Gaussian KDE with Silverman's rule-of-thumb
bandwidth on a 512-point grid.

The mode is the argmax of the exact 512 x T kernel sum, but that sum is
only evaluated on the grid points that can hold it.  A screen estimates
the density at every grid point by linear binning onto a lattice 8 times
finer than the grid plus one FFT convolution (the approximation of R's
density(), Silverman 1982, Applied Statistics AS 176).  Per sample, the
binned kernel is a linear interpolant of the Gaussian, whose second
derivative is at most 1/bw^2, so it is off by at most (delta/bw)^2 / 8
for lattice spacing delta.  Floating-point placement of the grid and the
samples adds at most 2^-48 (|lo| + |hi|) / bw per sample, where [lo, hi]
is the grid's span, and rounding in the FFT and in the exact sum stays
under 1e-9 per sample.  With B, T times the sum of these, no screened
value is further than B from the exact one, so every grid point whose
exact density is the maximum screens within 2B of the screened maximum.
Only those points get the exact sum, in ascending order, so argmax ties
resolve as over the full grid.  When B is loose (heavy-tailed samples
spread the grid) every point is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

KDE_MIN_SAMPLES = 30
_GRID_SIZE = 512
_KDE_CHUNK = 4096
_SCREEN_REFINE = 8  # screening lattice points per grid step
_SCREEN_SLACK = 1e-9  # per-sample allowance for FFT and summation rounding


@dataclass(frozen=True)
class IntervalEstimate:
    lo: float
    hi: float
    mass: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError("IntervalEstimate requires lo <= hi")
        if not 0.0 < self.mass < 1.0:
            raise ValueError("mass must lie strictly between 0 and 1")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class CoverageRecord:
    interval: IntervalEstimate
    point: float
    truth: float


def hpd_interval(samples, mass: float = 0.95) -> IntervalEstimate:
    """Shortest interval containing ceil(mass * T) consecutive order statistics.

    Ties between equally short windows are broken toward the lowest start
    index.
    """
    if not 0.0 < mass < 1.0:
        raise ValueError("mass must lie strictly between 0 and 1")
    x = np.sort(np.asarray(samples, dtype=float))
    t = x.size
    if t < 10:
        raise ValueError("hpd_interval needs at least 10 samples")
    m = int(math.ceil(mass * t))
    widths = x[m - 1:] - x[: t - m + 1]
    i = int(np.argmin(widths))  # argmin returns the first minimizer
    return IntervalEstimate(lo=float(x[i]), hi=float(x[i + m - 1]), mass=mass)


def _silverman_bandwidth(x: np.ndarray) -> float:
    sd = float(x.std())
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = float(q75 - q25)
    a = min(sd, iqr / 1.34)
    if a == 0.0:
        a = sd  # IQR can degenerate on heavily tied samples
    return 0.9 * a * x.size ** (-0.2)


def _screen_rows(x: np.ndarray, lo: float, hi: float, bw: float) -> np.ndarray:
    """Indices of the grid points whose exact KDE value can be the maximum.

    See the module docstring for the screen and its error bound.
    """
    size = _SCREEN_REFINE * (_GRID_SIZE - 1) + 1
    delta = (hi - lo) / (size - 1)
    ratio = delta / bw
    bound = x.size * (ratio * ratio / 8.0 + 2.0 ** -48 * (abs(lo) + abs(hi)) / bw
                      + _SCREEN_SLACK)
    if not 2.0 * bound < x.size:  # no screened value exceeds T: nothing is ruled out
        return np.arange(_GRID_SIZE)
    pos = np.clip((x - lo) / delta, 0.0, size - 1.0)
    cell = np.minimum(pos.astype(np.int64), size - 2)
    frac = pos - cell
    weights = (np.bincount(cell, 1.0 - frac, minlength=size)
               + np.bincount(cell + 1, frac, minlength=size))
    nfft = 1 << (2 * size - 2).bit_length()
    offsets = np.arange(nfft)
    offsets = np.minimum(offsets, nfft - offsets) * ratio  # circular lattice distance
    kernel = np.exp(-0.5 * offsets * offsets)
    screened = np.fft.irfft(np.fft.rfft(weights, nfft) * np.fft.rfft(kernel), nfft)
    screened = screened[:size:_SCREEN_REFINE]
    return np.flatnonzero(screened >= screened.max() - 2.0 * bound)


def kde_mode(samples) -> float:
    """Gaussian-KDE posterior mode on a 512-point grid.

    Bandwidth is Silverman's 0.9 min(sd, IQR/1.34) T^(-1/5); the grid
    spans [min - 3 bw, max + 3 bw].  Constant samples short-circuit to
    the constant.  The result is the first grid point where the exact
    kernel sum is largest.  That sum is evaluated only at the points that
    a binned FFT screen on a lattice of spacing delta = grid step / 8
    puts within 2B of its maximum, where the screen's error bound is
    B = T ((delta/bw)^2 / 8 + 2^-48 (|lo| + |hi|) / bw + 1e-9).
    """
    x = np.asarray(samples, dtype=float)
    if x.size < KDE_MIN_SAMPLES:
        raise ValueError(f"kde_mode needs at least {KDE_MIN_SAMPLES} samples")
    bw = _silverman_bandwidth(x)
    if bw == 0.0 or not math.isfinite(bw):
        return float(x[0])
    lo, hi = float(x.min()) - 3.0 * bw, float(x.max()) + 3.0 * bw
    grid = np.linspace(lo, hi, _GRID_SIZE)[_screen_rows(x, lo, hi, bw)]
    dens = np.zeros(grid.size)
    inv = 1.0 / bw
    for start in range(0, x.size, _KDE_CHUNK):
        chunk = x[start:start + _KDE_CHUNK]
        z = (grid[:, None] - chunk[None, :]) * inv
        dens += np.exp(-0.5 * z * z).sum(axis=1)
    return float(grid[int(np.argmax(dens))])  # argmax: lowest grid point on ties


def coverage_aggregate(records: Iterable[CoverageRecord]) -> dict:
    """Coverage fraction, mean interval length and point-estimate RMSE."""
    recs = list(records)
    if not recs:
        raise ValueError("coverage_aggregate needs at least one record")
    cover = np.array([r.interval.contains(r.truth) for r in recs], dtype=float)
    lens = np.array([r.interval.length for r in recs])
    errs = np.array([r.point - r.truth for r in recs])
    return {
        "coverage": float(cover.mean()),
        "avg_len": float(lens.mean()),
        "rmse": float(math.sqrt(np.mean(errs * errs))),
    }


def ess(samples: Sequence[float]) -> float:
    """Effective sample size via Geyer's initial positive sequence.

    Autocovariances come from an FFT; adjacent-lag pairs are summed until
    a pair goes nonpositive.
    """
    x = np.asarray(samples, dtype=float)
    t = x.size
    if t < 4:
        return float(t)
    xc = x - x.mean()
    nfft = 1 << (2 * t - 1).bit_length()
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:t].real / t
    if acov[0] <= 0:
        return float(t)
    rho = acov / acov[0]
    s = 0.0
    for k in range(1, t - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0:
            break
        s += pair
    denom = 1.0 + 2.0 * s
    return float(min(t, t / max(denom, 1e-12)))


def mc_se(samples: Sequence[float]) -> float:
    """Monte Carlo standard error of the mean, autocorrelation-adjusted."""
    x = np.asarray(samples, dtype=float)
    return float(x.std(ddof=1) / math.sqrt(ess(x)))
