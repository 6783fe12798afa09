"""Synthetic series generators and holdout backtesting with standard error metrics.

holdout_backtest(series, config) forecasts the config's horizon P from all
but the last P values, whichever method the config picks, and scores the
forecast against them; error_metrics returns the same BacktestReport.

Noise reproducibility: perturbations come from a splitmix64 stepper (constants
0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, shifts 30/27/31)
mapped to uniforms in [-half_width, half_width], so any implementation of those
constants reproduces the same series bit for bit. Sample i = 1..count is the
stepper's output after i steps, computed for all i at once in uint64 (mod 2^64):
    z = seed + i * 0x9E3779B97F4A7C15;  z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9
    z = (z ^ z >> 27) * 0x94D049BB133111EB;  z = z ^ z >> 31
    u = (2 * (z / 2^64) - 1) * half_width   (float64)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NgramcastError, SeriesTooShort
from .forecasting import Forecast, ForecastConfig, HoltConfig, forecast
from .series import TimeSeries, pearson

KINDS = ("sinusoid", "sinusoid-linear", "sinusoid-quadratic")


@dataclass(frozen=True)
class GeneratorSpec:
    """Seasonal series with optional linear/quadratic trend and seeded uniform noise.

    x_k = amplitude * sin(2*pi*k/period + phase) + slope*k + quadratic*k^2 + u_k
    for k = 1..length, u_k uniform on [-noise, +noise].
    """

    kind: str = "sinusoid"
    length: int = 100
    period: float = 25.0
    amplitude: float = 2.0
    slope: float = 0.0
    quadratic: float = 0.0
    phase: float = 0.0
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        if not self.period > 0:
            raise ValueError(f"period must be > 0, got {self.period}")
        if not self.amplitude > 0:
            raise ValueError(f"amplitude must be > 0, got {self.amplitude}")
        if not self.noise >= 0:  # nan too
            raise ValueError(f"noise half-width must be >= 0, got {self.noise}")
        if self.kind == "sinusoid" and (self.slope != 0.0 or self.quadratic != 0.0):
            raise ValueError("slope and quadratic must be 0 for kind 'sinusoid'")
        if self.kind == "sinusoid-linear" and self.quadratic != 0.0:
            raise ValueError("quadratic must be 0 for kind 'sinusoid-linear'")


def uniform_noise(half_width: float, count: int, seed: int) -> np.ndarray:
    """count deterministic uniforms on [-half_width, +half_width]."""
    i = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed % 2**64) + i * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (2.0 * (z / 2.0**64) - 1.0) * half_width


def clean_values(spec: GeneratorSpec, positions) -> np.ndarray:
    """Noise-free generator values at the given 1-based positions.

    Useful as the analytic continuation oracle: pass positions beyond length.
    """
    k = np.asarray(positions, dtype=np.float64)
    return (
        spec.amplitude * np.sin(2.0 * math.pi * k / spec.period + spec.phase)
        + spec.slope * k
        + spec.quadratic * k * k
    )


@np.errstate(over="ignore", invalid="ignore")  # TimeSeries refuses a value that overflows
def generate(spec: GeneratorSpec) -> TimeSeries:
    """Deterministic series for the spec; identical spec gives identical bits."""
    values = clean_values(spec, np.arange(1, spec.length + 1))
    if spec.noise > 0.0:
        values = values + uniform_noise(spec.noise, spec.length, spec.seed)
    return TimeSeries(values)


@dataclass(frozen=True)
class BacktestReport:
    """Error metrics of a forecast against the actual values. Sums and ratios that overflow
    are rescaled by powers of two: MAPE is None only if its mean exceeds float64."""

    mae: float
    rmse: float
    mape: float | None  # percent; None when every actual is 0 or the mean exceeds float64
    mape_skipped: int  # actuals equal to 0, excluded from MAPE
    correlation: float | None  # None for one point, or when forecast or actual is constant

    def __post_init__(self):
        # a constant error makes MAE equal RMSE, so allow rounding relative to scale
        if self.mae > self.rmse + 1e-12 * max(1.0, self.rmse):
            raise ValueError("MAE cannot exceed RMSE")


def error_metrics(predicted, actual) -> BacktestReport:
    """MAE, RMSE, MAPE and Pearson r (None where undefined) of two equal-length sequences."""
    f = np.asarray(predicted, dtype=np.float64)
    a = np.asarray(actual, dtype=np.float64)
    if f.size != a.size:
        raise ValueError(f"length mismatch: {f.size} vs {a.size}")
    nonzero = a != 0.0
    skipped = int((~nonzero).sum())
    with np.errstate(over="ignore", under="ignore"):  # the rescale below and pearson recover
        err = f - a
        mae = float(np.abs(err).mean())
        rmse = float(np.sqrt((err * err).mean()))
        mape = float(np.abs(err[nonzero] / a[nonzero]).mean() * 100.0) if nonzero.any() else None
        corr = pearson(f, a)
    if math.inf in (mae, rmse, mape):  # something overflows; power-of-two scales are exact
        e = math.frexp(np.abs(err).max())[1] or 1025  # frexp(inf) gives 0: f - a overflows
        unit = np.ldexp(f, -e) - np.ldexp(a, -e)  # err * 2^-e, below 1 in size
        try:
            mae = math.ldexp(float(np.abs(unit).mean()), e) if mae == math.inf else mae
            rmse = math.ldexp(float(np.sqrt((unit * unit).mean())), e) if rmse == math.inf else rmse
        except OverflowError:
            raise NgramcastError("the forecast errors are too large: RMSE overflows float64") from None
        if mape == math.inf:  # |err / a| = |unit / m| * 2^(e - x) where a = m * 2^x
            m, x = np.frexp(a[nonzero])
            top = int((e - x).max())
            mean = float(np.ldexp(np.abs(unit[nonzero] / m), e - x - top).mean() * 100.0)
            mape = math.ldexp(mean, top) if top + math.frexp(mean)[1] <= 1024 else None
    return BacktestReport(mae, rmse, mape, skipped, corr)


def holdout_backtest(
    series: TimeSeries, config: ForecastConfig | HoltConfig
) -> tuple[BacktestReport, Forecast]:
    """Hold out the last config.horizon values, forecast them from the prefix, score the error.

    The method only ever sees the training prefix; a too-short error counts the held-out tail.
    """
    values = series.values
    horizon = config.horizon
    if values.size <= horizon:
        raise SeriesTooShort(values.size, horizon + 1)
    try:
        result = forecast(TimeSeries(values[: values.size - horizon]), config)
    except SeriesTooShort as exc:  # name the caller's series, not the prefix
        raise SeriesTooShort(values.size, exc.minimum + horizon) from None
    return error_metrics(result.values, values[values.size - horizon :]), result
