"""Forecasting: one call, forecast(series, config), for the phrase method and the Holt baseline.

The config's type picks the method and carries the horizon: a ForecastConfig
runs the phrase method, a HoltConfig the Holt baseline. Pipeline order for
the phrase method: the raw series is quantized once globally, then windows
are detrended individually at comparison time when trend_mode is LINEAR.
That mode also transfers the query window's local trend onto the matched
follower: the candidate's own extrapolated trend is subtracted first so it is
not double-counted.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NgramcastError, SeriesTooShort
from .matching import SimilarityCriterion, find_best_match
from .series import TimeSeries, fit_linear_trend, quantize


class TrendMode(enum.Enum):
    NONE = "none"
    LINEAR = "linear"


@dataclass(frozen=True)
class ForecastConfig:
    """User-facing parameters for the phrase-matching methods, all checked when it is made.

    Window length N (window_length) is ceil(multiplier * horizon), an exact product not rounded
    up, unless an explicit window is given. The multiplier M defaults to 1.0 for P >= 5 and to
    2.25 for P < 5, the shortest windows in range; an M outside its recommended range
    (multiplier_check) is a warning.
    """

    horizon: int
    multiplier: float | None = None
    levels: int = 32
    criterion: SimilarityCriterion = SimilarityCriterion.DIFFERENCE
    trend_mode: TrendMode = TrendMode.NONE
    window: int | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.multiplier is None:
            object.__setattr__(self, "multiplier", 1.0 if self.horizon >= 5 else 2.25)
        if not self.multiplier > 0:  # nan too
            raise ValueError(f"multiplier must be > 0, got {self.multiplier}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.window is not None:
            if self.window < 2:
                raise ValueError(f"window must be >= 2, got {self.window}")
        elif not self.multiplier * self.horizon < 2**53:  # ceil is exact only below 2^53
            raise ValueError(f"multiplier {self.multiplier} times horizon {self.horizon} is too"
                             " large: the window length must be below 2^53")
        elif self.window_length < 2:
            raise ValueError(f"derived window length {self.window_length} is below 2"
                             f" (horizon={self.horizon}, multiplier={self.multiplier})")
        elif not (check := self.multiplier_check)[0]:
            warnings.warn(check[1], stacklevel=3)

    @property
    def window_length(self) -> int:
        return math.ceil(self.multiplier * self.horizon) if self.window is None else self.window

    @property
    def multiplier_check(self) -> tuple[bool, str] | None:
        """Advisory (ok, message) on the multiplier's recommended range for this horizon;
        message names the range when not ok. None with an explicit window: M sets nothing."""
        if self.window is not None:
            return None
        if self.horizon >= 5:
            ok, rule = 1.0 <= self.multiplier <= 2.0, "[1, 2] for horizon >= 5"
        else:
            ok, rule = 2.0 < self.multiplier <= 5.0, "(2, 5] for horizon < 5"
        return ok, "ok" if ok else f"multiplier {self.multiplier} outside recommended range {rule}"


@dataclass(frozen=True)
class HoltConfig:
    """Forecast horizon P and the double exponential smoothing coefficients, both in [0, 1]."""

    horizon: int
    xi: float = 0.5  # value smoothing
    phi: float = 0.5  # trend smoothing

    def __post_init__(self):
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError(f"xi must be in [0, 1], got {self.xi}")
        if not 0.0 <= self.phi <= 1.0:
            raise ValueError(f"phi must be in [0, 1], got {self.phi}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")


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

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("forecast values must all be finite")
        object.__setattr__(self, "values", vals)


def forecast(series: TimeSeries, config: ForecastConfig | HoltConfig) -> Forecast:
    """The next config.horizon values; a HoltConfig runs forecast_holt.

    The config was checked when it was made, so an error here comes from the series. The phrase
    method quantizes, finds the best-matching phrase and copies its follower. Under
    TrendMode.LINEAR the windows are matched detrended and the query's trend is transferred
    onto the follower: forecast[j] = follower[j] - T_cand(N+j) + T_query(N+j), with both
    trends fitted over local positions 1..N of the quantized windows.
    """
    if isinstance(config, HoltConfig):
        return forecast_holt(series, config)
    linear = config.trend_mode is TrendMode.LINEAR
    method = "linguo-correlation" if linear else "linguistic"
    p = config.horizon
    n = config.window_length
    if (series.values == series.values[0]).all():
        warnings.warn(
            "constant series: quantization skipped, forecast is the constant",
            stacklevel=2,
        )
        c = float(series.values[0])
        return Forecast((c,) * p, matched_start=0, score=0.0, method=method)
    quantized, _ = quantize(series, config.levels)
    match = find_best_match(quantized, n, p, config.criterion, detrend_mode=linear)
    qv = quantized.values
    begin = match.start - 1
    values = qv[begin + n : begin + n + p]
    if linear:
        with np.errstate(over="ignore", invalid="ignore"):  # the check below refuses inf and nan
            trend_cand = fit_linear_trend(qv[begin : begin + n])
            trend_query = fit_linear_trend(qv[qv.size - n :])
            positions = np.arange(n + 1, n + p + 1)
            values = values - trend_cand.at(positions) + trend_query.at(positions)
        if not np.isfinite(values).all():
            raise NgramcastError(
                f"values up to {np.abs(qv).max():g} are too large for the linear trend:"
                " its fit or its transfer overflows float64"
            )
    return Forecast(tuple(values), matched_start=match.start, score=match.score, method=method)


def forecast_holt(series: TimeSeries, config: HoltConfig) -> Forecast:
    """Double exponential smoothing baseline.

    Recurrences for k = 2..K with x1_hat = x_1, t1_hat = x_2 - x_1:
        x_hat_k = (1 - xi) * x_k + xi * (x_hat_{k-1} + t_hat_{k-1})
        t_hat_k = (1 - phi) * (x_hat_k - x_hat_{k-1}) + phi * t_hat_{k-1}
    Forecast trajectory: x_hat_K + j * t_hat_K for j = 1..P. Exact on lines
    for any xi, phi under this initialization.
    """
    x = memoryview(series.values)  # Python floats one at a time, not a list of all of them
    if len(x) < 2:
        raise SeriesTooShort(len(x), 2)
    xi, phi = config.xi, config.phi
    level = x[0]
    trend = x[1] - x[0]
    for value in x[1:]:
        prev = level
        level = (1.0 - xi) * value + xi * (level + trend)
        trend = (1.0 - phi) * (level - prev) + phi * trend
    values = tuple(level + j * trend for j in range(1, config.horizon + 1))
    if not all(map(math.isfinite, values)):
        raise NgramcastError(
            f"values up to {max(map(abs, x)):g} are too large for Holt smoothing:"
            " the level and trend overflow float64"
        )
    return Forecast(values, matched_start=0, score=0.0, method="holt")
