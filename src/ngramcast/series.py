"""Core numeric primitives: series container, quantization, linear trends, Pearson correlation.

Index convention: series positions are reported 1-based everywhere in the public
API (position k runs 1..K); slicing into numpy arrays is 0-based internally.
Regressors for trend fitting are the window-local serial numbers 1..n, so trends
from windows at different offsets are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateRange,
    InsufficientPoints,
    InvalidLevels,
    UndefinedCorrelation,
)


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

    @property
    def is_constant(self) -> bool:
        return bool(np.all(self.values == self.values[0]))


@dataclass(frozen=True)
class QuantizationGrid:
    """S+1 evenly spaced levels spanning the observed value range inclusive."""

    min: float
    max: float
    levels: int
    step: float = field(init=False)

    def __post_init__(self):
        if self.levels < 1:
            raise InvalidLevels(f"levels must be >= 1, got {self.levels}")
        if not self.max > self.min:
            raise DegenerateRange(f"max ({self.max}) must exceed min ({self.min})")
        step = (self.max - self.min) / self.levels
        if not math.isfinite(step):
            raise DegenerateRange(
                f"value range [{self.min}, {self.max}] is too wide: max - min overflows float64"
            )
        object.__setattr__(self, "step", step)

    def snap(self, values: np.ndarray) -> np.ndarray:
        """Round each value to the nearest grid point; exact midpoints go up."""
        idx = np.floor((np.asarray(values, dtype=np.float64) - self.min) / self.step + 0.5)
        idx = np.clip(idx, 0, self.levels)
        out = self.min + idx * self.step
        # min + levels*step can drift from max by one ulp; pin the endpoint
        return np.where(idx == self.levels, self.max, out)


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

    The grid is built from the series' own min and max, so those two values
    map to themselves exactly.
    """
    if levels < 1:
        raise InvalidLevels(f"levels must be >= 1, got {levels}")
    vmin = float(series.values.min())
    vmax = float(series.values.max())
    if vmax == vmin:
        raise DegenerateRange("constant series: quantization grid is undefined")
    grid = QuantizationGrid(vmin, vmax, levels)
    return TimeSeries(grid.snap(series.values)), grid


def fit_linear_trend(window) -> LinearTrend:
    """Least-squares line through (1, w[0]) .. (n, w[n-1]).

    Uses the moment form B = (mean(xy) - mean(x)mean(y)) / (mean(x^2) - mean(x)^2),
    A = mean(y) - B*mean(x).
    """
    y = np.asarray(window, dtype=np.float64)
    n = y.size
    if n < 2:
        raise InsufficientPoints(f"need at least 2 points to fit a trend, got {n}")
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


def pearson(a, b) -> float:
    """Sample Pearson correlation of two equal-length sequences, clamped to [-1, 1].

    Raises UndefinedCorrelation when either sequence has zero variance.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise InsufficientPoints(f"need at least 2 points, got {x.size}")
    dx = x - x.mean()
    dy = y - y.mean()
    ssx = float(dx @ dx)
    ssy = float(dy @ dy)
    if ssx == 0.0 or ssy == 0.0:
        raise UndefinedCorrelation("zero variance in input sequence")
    r = float(dx @ dy) / math.sqrt(ssx * ssy)
    return max(-1.0, min(1.0, r))
