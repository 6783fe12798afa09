"""Forecasting: one call, forecast(series, config), for the phrase method and the Holt baseline.

The config's type picks the method and carries the horizon: a ForecastConfig
runs the phrase method, a HoltConfig the Holt baseline. Pipeline order for
the phrase method: the raw series is quantized once globally, then windows
are detrended individually at comparison time when trend_mode is LINEAR.
That mode also transfers the query window's local trend onto the matched
follower: the candidate's own extrapolated trend is subtracted first so it is
not double-counted.
"""

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .matching import _LINE, SimilarityCriterion, find_best_match
from .series import NgramcastError, SeriesTooShort, TimeSeries, fit_linear_trend, quantize

_SIGN = ": r of {} {}points is +1 or -1, so it would carry only a sign"


class TrendMode(enum.Enum):
    NONE = "none"
    LINEAR = "linear"


@dataclass(frozen=True)
class ForecastConfig:
    """User-facing parameters for the phrase-matching methods, all checked when it is made.

    Window length N (window_length) is the ceiling of the float64 product multiplier * horizon,
    not of the exact one: ForecastConfig(1932, 33.61231884057971) has N = 64939, though the
    exact product is 64939 + 49/2^45. The multiplier (N - 0.5) / horizon gives a window of N.
    M defaults to 1.0 for P >= 5 and to 2.25 for P < 5, the shortest windows in range; an M
    outside its recommended range (multiplier_check) is a warning. A criterion or trend_mode
    given as its value ("correlation", "linear") becomes the member.
    """

    horizon: int
    multiplier: float | None = None
    levels: int = 32
    criterion: SimilarityCriterion = SimilarityCriterion.DIFFERENCE
    trend_mode: TrendMode = TrendMode.NONE
    MIN_ROWS = 1  # the fewest rows forecast: a one-row series is constant

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.multiplier is None:
            object.__setattr__(self, "multiplier", 1.0 if self.horizon >= 5 else 2.25)
        if not self.multiplier > 0:  # nan too
            raise ValueError(f"multiplier must be > 0, got {self.multiplier}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.levels >= 2**63:  # so a grid index fits in int64
            raise ValueError(f"levels must be below 2^63, got {self.levels}")
        if not self.multiplier < 2**53 / self.horizon:  # ceil is exact only below 2^53
            raise ValueError(f"multiplier {self.multiplier} times horizon {self.horizon} is too"
                             " large: the window length must be below 2^53")
        object.__setattr__(self, "criterion", SimilarityCriterion(self.criterion))
        object.__setattr__(self, "trend_mode", TrendMode(self.trend_mode))
        linear = self.trend_mode is TrendMode.LINEAR
        correlation = self.criterion is SimilarityCriterion.CORRELATION
        if self.window_length < (minimum := 2 + linear + correlation):
            sign = _SIGN.format(minimum - 1, "detrended " * linear)
            raise ValueError(f"derived window length {self.window_length} is below {minimum}"
                             f" (horizon={self.horizon}, multiplier={self.multiplier})"
                             + (sign if correlation else _LINE * linear))
        if not (check := self.multiplier_check)[0]:
            warnings.warn(check[1], stacklevel=3)

    @property
    def window_length(self) -> int:
        return math.ceil(self.multiplier * self.horizon)

    @property
    def multiplier_check(self) -> tuple[bool, str]:
        """Advisory (ok, message) on the multiplier's recommended range for this horizon;
        message names the range when not ok."""
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
    MIN_ROWS = 2  # the fewest rows forecast: x_1 and x_2 start the level and the trend

    def __post_init__(self):
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError(f"xi must be in [0, 1], got {self.xi}")
        if not 0.0 <= self.phi <= 1.0:
            raise ValueError(f"phi must be in [0, 1], got {self.phi}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.horizon > 2**53:  # forecast_holt's steps j = 1..P are exact in float64 up to 2^53
            raise ValueError(f"horizon must be at most 2^53, got {self.horizon}")


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
        warnings.warn("constant series: quantization skipped, forecast is the constant",
                      stacklevel=2)
        return Forecast((series.values[0],) * p, matched_start=0, score=0.0, method=method)
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
            raise NgramcastError(f"values up to {np.abs(qv).max():g} are too large for the"
                                 " linear trend: its fit or its transfer overflows float64")
    if not math.isfinite(match.score):  # an L1 sum past float64, or nan when every key is nan
        raise NgramcastError(f"values up to {np.abs(qv).max():g} are too large for the"
                             f" {config.criterion.value} criterion: the best window's score"
                             " overflows float64")
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
    if len(x) < config.MIN_ROWS:
        raise SeriesTooShort(len(x), config.MIN_ROWS)
    xi, phi = config.xi, config.phi
    value_weight, step_weight = 1.0 - xi, 1.0 - phi  # of the new value and the new step
    level = x[0]
    trend = x[1] - x[0]
    for value in x[1:]:
        prev = level
        level = value_weight * value + xi * (level + trend)
        trend = step_weight * (level - prev) + phi * trend
    values = tuple(level + j * trend for j in range(1, config.horizon + 1))
    if not all(map(math.isfinite, values)):
        raise NgramcastError(f"values up to {max(map(abs, x)):g} are too large for Holt"
                             " smoothing: the level and trend overflow float64")
    return Forecast(values, matched_start=0, score=0.0, method="holt")
