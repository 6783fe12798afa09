"""Core numeric primitives: series container, quantization, linear trends, Pearson correlation.

Index convention: series positions are reported 1-based everywhere in the public
API (position k runs 1..K); slicing into numpy arrays is 0-based internally.
Regressors for trend fitting are the window-local serial numbers 1..n, so trends
from windows at different offsets are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NgramcastError

_TINY = 2.0**-1022  # the smallest normal float64


@dataclass(frozen=True)
class TimeSeries:
    """Ordered real-valued observations at uniform implicit time steps."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("series must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("series values must all be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class QuantizationGrid:
    """S+1 evenly spaced levels, step apart, spanning the observed value range inclusive."""

    min: float
    max: float
    levels: int
    step: float


@dataclass(frozen=True)
class LinearTrend:
    """Least-squares line y = slope*x + intercept over local positions x = 1..n."""

    slope: float
    intercept: float

    def at(self, positions) -> np.ndarray:
        """Evaluate the line at the given 1-based positions."""
        x = np.asarray(positions, dtype=np.float64)
        return self.slope * x + self.intercept


def quantize(series: TimeSeries, levels: int) -> tuple[TimeSeries, QuantizationGrid]:
    """Map every value to the nearest of levels+1 grid points over [min, max].

    Exact midpoints go up. The grid is built from the series' own min and
    max, so those two values map to themselves exactly.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    vmin = float(series.values.min())
    vmax = float(series.values.max())
    if vmax == vmin:
        raise NgramcastError("constant series: quantization grid is undefined")
    step = (vmax - vmin) / levels
    if not math.isfinite(step):
        raise NgramcastError(
            f"value range [{vmin}, {vmax}] is too wide: max - min overflows float64"
        )
    if step == 0.0:
        raise NgramcastError(
            f"value range [{vmin}, {vmax}] is too narrow for {levels} levels:"
            " the grid step underflows float64"
        )
    idx = np.floor((series.values - vmin) / step + 0.5)
    idx = np.clip(idx, 0, levels)
    out = vmin + idx * step
    # vmin + levels*step can drift from vmax by one ulp; pin the endpoint
    out = np.where(idx == levels, vmax, out)
    return TimeSeries(out), QuantizationGrid(vmin, vmax, levels, step)


def fit_linear_trend(window) -> LinearTrend:
    """Least-squares line through (1, w[0]) .. (n, w[n-1]).

    Uses the moment form B = (mean(xy) - mean(x)mean(y)) / (mean(x^2) - mean(x)^2),
    A = mean(y) - B*mean(x).
    """
    y = np.asarray(window, dtype=np.float64)
    n = y.size
    if n < 2:
        raise ValueError(f"need at least 2 points to fit a trend, got {n}")
    x = np.arange(1, n + 1, dtype=np.float64)
    x_mean = x.mean()
    y_mean = y.mean()
    slope = ((x * y).mean() - x_mean * y_mean) / ((x * x).mean() - x_mean * x_mean)
    intercept = y_mean - slope * x_mean
    return LinearTrend(float(slope), float(intercept))


def detrend(window, trend: LinearTrend) -> np.ndarray:
    """Subtract the trend evaluated at the window's own 1-based positions."""
    y = np.asarray(window, dtype=np.float64)
    return y - trend.at(np.arange(1, y.size + 1))


@np.errstate(over="ignore", under="ignore", invalid="ignore")  # rescaled or nan below
def pearson(a, b) -> float | None:
    """Sample Pearson correlation of two equal-length sequences, clamped to [-1, 1].

    None where r is undefined: on fewer than 2 points, or when either sequence
    has zero variance (its deviations from its mean are exactly all 0); nan for
    an inf or nan input that does not have zero variance. Any
    finite scale gives the same r: an exact scaling of an input by a power of
    two leaves every bit of r as it is.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        return None
    dx = x - x.mean()
    dy = y - y.mean()
    ssx = float(dx @ dx)
    ssy = float(dy @ dy)
    if not (ssx >= _TINY and ssy >= _TINY and _TINY <= ssx * ssy < math.inf):
        # A sum or their product overflows or is not a normal float (0 included).
        # Unless an input's deviations are all 0, scale each input by the power of two
        # that puts its largest magnitude in [0.5, 1): that is exact and leaves r as it
        # is, and each sum is then between 2^-108 and 4n, so it takes the path below.
        if not (dx.any() and dy.any()):
            return None
        ex, ey = (math.frexp(np.abs(v).max())[1] for v in (x, y))
        if not (ex or ey):  # both are 0 only for an inf or nan input, which no scale mends
            return math.nan
        return pearson(np.ldexp(x, -ex), np.ldexp(y, -ey))
    r = float(dx @ dy) / math.sqrt(ssx * ssy)
    return max(-1.0, min(1.0, r))
