"""Forecasting: the phrase-matching pipeline and the Holt baseline.

Pipeline order for the phrase method: the raw series is quantized once
globally, then windows are detrended individually at comparison time when
trend_mode is LINEAR. That mode also transfers the query window's local trend
onto the matched follower: the candidate's own extrapolated trend is
subtracted first so it is not double-counted.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SeriesTooShort, WindowTooSmall
from .matching import SimilarityCriterion, find_best_match
from .series import TimeSeries, fit_linear_trend, quantize


class TrendMode(enum.Enum):
    NONE = "none"
    LINEAR = "linear"


@dataclass(frozen=True)
class ForecastConfig:
    """User-facing parameters for the phrase-matching methods.

    Window length N is derived as ceil(multiplier * horizon) unless an explicit
    window is given.
    """

    horizon: int
    multiplier: float = 1.0
    levels: int = 32
    criterion: SimilarityCriterion = SimilarityCriterion.DIFFERENCE
    trend_mode: TrendMode = TrendMode.NONE
    window: int | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.multiplier <= 0:
            raise ValueError(f"multiplier must be > 0, got {self.multiplier}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")

    @property
    def window_length(self) -> int:
        if self.window is not None:
            if self.window < 2:
                raise WindowTooSmall(f"window must be >= 2, got {self.window}")
            return self.window
        return derive_window_length(self.horizon, self.multiplier)


@dataclass(frozen=True)
class HoltConfig:
    """Double exponential smoothing coefficients, both in [0, 1]."""

    xi: float = 0.5  # value smoothing
    phi: float = 0.5  # trend smoothing

    def __post_init__(self):
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError(f"xi must be in [0, 1], got {self.xi}")
        if not 0.0 <= self.phi <= 1.0:
            raise ValueError(f"phi must be in [0, 1], got {self.phi}")


@dataclass(frozen=True)
class Forecast:
    """P predicted values plus provenance of the match that produced them.

    matched_start is 0 (and score 0.0) for the constant-series shortcut and
    the Holt baseline, where no window search happens.
    """

    values: tuple
    matched_start: int
    score: float
    method: str
    config: object

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("forecast values must all be finite")
        object.__setattr__(self, "values", vals)


def derive_window_length(horizon: int, multiplier: float) -> int:
    """N = ceil(multiplier * horizon); exact products are not rounded up."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if multiplier <= 0:
        raise ValueError(f"multiplier must be > 0, got {multiplier}")
    n = math.ceil(multiplier * horizon)
    if n < 2:
        raise WindowTooSmall(
            f"derived window length {n} is below 2 (horizon={horizon}, multiplier={multiplier})"
        )
    return n


def validate_multiplier(horizon: int, multiplier: float) -> tuple[bool, str]:
    """Advisory check of the multiplier against the recommended range for this horizon.

    Returns (ok, message); message names the recommended range when not ok.
    """
    if horizon >= 5:
        if 1.0 <= multiplier <= 2.0:
            return True, "ok"
        return False, (
            f"multiplier {multiplier} outside recommended range [1, 2] for horizon >= 5"
        )
    if 2.0 < multiplier <= 5.0:
        return True, "ok"
    return False, (
        f"multiplier {multiplier} outside recommended range (2, 5] for horizon < 5"
    )


def forecast(series: TimeSeries, config: ForecastConfig) -> Forecast:
    """Quantize, find the best-matching phrase, copy its follower.

    Under TrendMode.LINEAR the windows are matched detrended and the query's
    trend is transferred onto the follower:
    forecast[j] = follower[j] - T_cand(N+j) + T_query(N+j), with both trends
    fitted over local positions 1..N of the quantized windows.
    """
    linear = config.trend_mode is TrendMode.LINEAR
    method = "linguo-correlation" if linear else "linguistic"
    p = config.horizon
    if series.is_constant:
        warnings.warn(
            "constant series: quantization skipped, forecast is the constant",
            stacklevel=2,
        )
        c = float(series.values[0])
        return Forecast((c,) * p, matched_start=0, score=0.0, method=method, config=config)
    n = config.window_length
    quantized, _ = quantize(series, config.levels)
    match = find_best_match(quantized, n, p, config.criterion, detrend_mode=linear)
    qv = quantized.values
    begin = match.start - 1
    values = qv[begin + n : begin + n + p]
    if linear:
        trend_cand = fit_linear_trend(qv[begin : begin + n])
        trend_query = fit_linear_trend(qv[qv.size - n :])
        positions = np.arange(n + 1, n + p + 1)
        values = values - trend_cand.at(positions) + trend_query.at(positions)
    return Forecast(
        tuple(values),
        matched_start=match.start,
        score=match.score,
        method=method,
        config=config,
    )


def forecast_holt(series: TimeSeries, holt: HoltConfig, horizon: int) -> Forecast:
    """Double exponential smoothing baseline.

    Recurrences for k = 2..K with x1_hat = x_1, t1_hat = x_2 - x_1:
        x_hat_k = (1 - xi) * x_k + xi * (x_hat_{k-1} + t_hat_{k-1})
        t_hat_k = (1 - phi) * (x_hat_k - x_hat_{k-1}) + phi * t_hat_{k-1}
    Forecast trajectory: x_hat_K + j * t_hat_K for j = 1..P. Exact on lines
    for any xi, phi under this initialization.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    x = series.values.tolist()
    if len(x) < 2:
        raise SeriesTooShort(len(x), 2)
    xi, phi = holt.xi, holt.phi
    level = x[0]
    trend = x[1] - x[0]
    for value in x[1:]:
        prev = level
        level = (1.0 - xi) * value + xi * (level + trend)
        trend = (1.0 - phi) * (level - prev) + phi * trend
    values = tuple(level + j * trend for j in range(1, horizon + 1))
    return Forecast(values, matched_start=0, score=0.0, method="holt", config=holt)
