"""Phrase-matching time-series forecasting with a Holt baseline.

Treats a quantized series as text: the forecast is the follower of the
historical window most similar to the last N observations, optionally with
local linear trends removed before matching and transferred afterwards.
Every other name stays reachable through its module.
"""

__version__ = "0.1.0"

from .evaluation import BacktestReport, GeneratorSpec, generate, holdout_backtest
from .forecasting import Forecast, ForecastConfig, HoltConfig, TrendMode, forecast
from .matching import SimilarityCriterion
from .series import NgramcastError, TimeSeries

__all__ = [
    "BacktestReport",
    "Forecast",
    "ForecastConfig",
    "GeneratorSpec",
    "HoltConfig",
    "NgramcastError",
    "SimilarityCriterion",
    "TimeSeries",
    "TrendMode",
    "forecast",
    "generate",
    "holdout_backtest",
]
