"""The library's refusals in one table, in the README's order. A row is (id, a zero-argument
call, exception type, message), and a SeriesTooShort row adds its .minimum. An id names the
one-off test the row replaced (with its class where two shared a name) or the rule it adds.
The templates of the messages that tests/test_cli.py also checks are stated here once, and it
builds its error lines from them; its test_every_raise_site_is_reached requires each raise in
the package to be reached by a row here or by a refused run of its own table."""

import math
import warnings
from functools import partial

import numpy as np
import pytest

from ngramcast import (BacktestReport, Forecast, ForecastConfig, GeneratorSpec, HoltConfig,
                       NgramcastError, SimilarityCriterion, TimeSeries, TrendMode, forecast,
                       generate, holdout_backtest)
from ngramcast.evaluation import error_metrics
from ngramcast.forecasting import forecast_holt
from ngramcast.matching import find_best_match
from ngramcast.series import NoValidCandidate, SeriesTooShort, fit_linear_trend, pearson, quantize
from test_matching import SINE_THEN_THIRDS

DIFF, CORR = SimilarityCriterion.DIFFERENCE, SimilarityCriterion.CORRELATION
LINEAR = TrendMode.LINEAR
HUGE = 10**400  # past float64
LEVELS = [("2^63", 2**63), ("1e400", HUGE)]
TRENDS = [("none", False), ("linear", True)]
LINE = ": a line fits any 2 points, so a detrended window of 2 is only rounding noise"
SIGN = ": r of {} {}points is +1 or -1, so it would carry only a sign"
BELOW = "derived window length {} is below {} (horizon={}, multiplier={}){}"
TOO_LARGE = "multiplier {} times horizon {} is too large: the window length must be below 2^53"
SHORT = "series length {} is below the minimum required length {}"
EXCLUDED = "every candidate window was excluded under the correlation criterion"
TOO_LARGE_VALUES = "values up to {} are too large for {}: {} float64"
NOT_FINITE = ("generated values must all be finite: amplitude, slope, quadratic, noise and length"
              " set their size, and a period near 0 makes the sine nan")
MATCH_40 = partial(find_best_match, TimeSeries(np.arange(40.0)))  # then N, P, criterion, detrend

REFUSALS = [
    # ValueError: a refused argument
    ("test_rejects_empty", partial(TimeSeries, []), ValueError,
     "series must be a non-empty 1-d sequence"),
    *((f"test_rejects_nan_and_inf-{bad}", partial(TimeSeries, [1.0, bad]), ValueError,
       "series values must all be finite") for bad in (math.nan, math.inf)),
    # numpy refuses the write, so the row reaches no raise of the package
    ("test_values_are_immutable", partial(TimeSeries([1.0, 2.0]).values.__setitem__, 0, 5.0),
     ValueError, "assignment destination is read-only"),
    ("test_invalid_levels", partial(quantize, TimeSeries([1, 2]), 0), ValueError,
     "levels must be >= 1, got 0"),
    *((f"TestQuantize.test_levels_from_2_to_the_63-{case}", partial(quantize, TimeSeries([1, 2]),
       levels), ValueError, f"levels must be below 2^63, got {levels}") for case, levels in LEVELS),
    ("test_insufficient_points", partial(fit_linear_trend, [1.0]), ValueError,
     "need at least 2 points to fit a trend, got 1"),
    ("TestPearson.test_length_mismatch", partial(pearson, [1, 2], [1, 2, 3]), ValueError,
     "length mismatch: 2 vs 3"),
    *((f"test_window_and_horizon_are_checked-{case}", partial(MATCH_40, *args), ValueError, message)
      for case, args, message in [("window", (1, 1, DIFF), "window must be >= 2, got 1"),
                                  ("horizon", (2, 0, DIFF), "horizon must be >= 1, got 0"),
                                  ("detrended-window", (2, 1, DIFF, True),
                                   "window must be >= 3, got 2" + LINE)]),
    ("find-best-match-unknown-criterion", partial(MATCH_40, 2, 1, "cosine"), ValueError,
     "'cosine' is not a valid SimilarityCriterion"),
    # ForecastConfig(horizon, multiplier, levels, criterion, trend_mode). ceil is exact only
    # below 2^53: 1e308 overflows the product, 5e300 and 1e16 do not, and 10^400 is past float64.
    # A mode is its member or its value name. r of 2 points, or of 3 detrended, is only a sign
    *((name, partial(ForecastConfig, *args), ValueError, message) for name, args, message in [
        ("test_horizon_below_1", (0,), "horizon must be >= 1, got 0"),
        ("test_multiplier_not_above_0-zero", (5, 0), "multiplier must be > 0, got 0"),
        ("test_multiplier_not_above_0-negative", (5, -1.0), "multiplier must be > 0, got -1.0"),
        ("test_multiplier_not_above_0-nan", (5, math.nan), "multiplier must be > 0, got nan"),
        ("test_levels_below_1", (5, None, 0), "levels must be >= 1, got 0"),
        *((f"TestWindowLength.test_levels_from_2_to_the_63-{case}", (5, None, levels),
           f"levels must be below 2^63, got {levels}") for case, levels in LEVELS),
        ("test_overflowing_product_names_horizon_and_multiplier", (5, 1e308),
         TOO_LARGE.format("1e+308", 5)),
        ("test_inexact_product_names_horizon_and_multiplier-5e300", (5, 1e300),
         TOO_LARGE.format("1e+300", 5)),
        ("test_inexact_product_names_horizon_and_multiplier-1e16", (4, 2.5e15),
         TOO_LARGE.format("2500000000000000.0", 4)),
        ("test_horizon_past_float64-default", (HUGE,), TOO_LARGE.format("1.0", HUGE)),
        ("test_horizon_past_float64-tiny", (HUGE, 1e-300), TOO_LARGE.format("1e-300", HUGE)),
        ("unknown-criterion", (5, None, 32, "cosine"),
         "'cosine' is not a valid SimilarityCriterion"),
        ("unknown-trend", (5, None, 32, DIFF, "quadratic"), "'quadratic' is not a valid TrendMode"),
        ("test_window_too_small", (1, 0.5), BELOW.format(1, 2, 1, 0.5, "")),
        ("test_window_of_one_at_a_longer_horizon", (5, 0.2), BELOW.format(1, 2, 5, 0.2, "")),
        ("test_a_linear_trend_needs_a_window_of_3", (1, 1.5, 32, DIFF, LINEAR),
         BELOW.format(2, 3, 1, 1.5, LINE)),
        ("correlation-window-2-below-3", (1, 1.5, 32, CORR),
         BELOW.format(2, 3, 1, 1.5, SIGN.format(2, ""))),
        ("correlation-named-by-its-value-window-2-below-3", (1, 2.0, 32, "correlation"),
         BELOW.format(2, 3, 1, 2.0, SIGN.format(2, ""))),
        ("correlation-linear-window-3-below-4", (1, None, 32, CORR, LINEAR),
         BELOW.format(3, 4, 1, 2.25, SIGN.format(3, "detrended "))),
        ("correlation-linear-window-2-below-4", (1, 1.5, 32, CORR, LINEAR),
         BELOW.format(2, 4, 1, 1.5, SIGN.format(3, "detrended ")))]),
    # HoltConfig(horizon, xi, phi): of two bad values, the CLI names the one it always named
    *((name, partial(HoltConfig, *args), ValueError, message) for name, args, message in [
        ("test_coefficient_bounds-xi", (5, 1.5), "xi must be in [0, 1], got 1.5"),
        ("test_horizon_is_checked_after_the_coefficients-xi", (0, 2.0),
         "xi must be in [0, 1], got 2.0"),
        ("test_coefficient_bounds-phi", (5, 0.5, -0.1), "phi must be in [0, 1], got -0.1"),
        ("test_horizon_is_checked_after_the_coefficients-horizon", (0,),
         "horizon must be >= 1, got 0"),
        # forecast_holt's steps j = 1..P are exact in float64 up to 2^53, as generate's positions
        ("holt-horizon-past-2^53", (2**53 + 1,),
         "horizon must be at most 2^53, got 9007199254740993")]),
    ("test_forecast_refuses_values_that_are_not_finite", partial(Forecast, (math.nan,), 0, 0.0,
     "holt"), ValueError, "forecast values must all be finite"),
    *((f"test_kind_validation-{case}", partial(GeneratorSpec, **fields), ValueError, message)
      for case, fields, message in [
          ("kind", {"kind": "sawtooth"}, "unknown generator kind 'sawtooth'"),
          ("sinusoid-slope", {"kind": "sinusoid", "slope": 0.1},
           "slope and quadratic must be 0 for kind 'sinusoid'"),
          ("length", {"length": 0}, "length must be >= 1, got 0"),
          ("length-past-2^53", {"length": 2**53 + 1},
           "length must be at most 2^53, got 9007199254740993"),
          *((f"period-{period}", {"period": period}, f"period must be > 0, got {period}")
            for period in (0, math.nan)),
          ("zero-amplitude", {"amplitude": 0.0}, "amplitude must be > 0, got 0.0"),
          ("negative-amplitude", {"amplitude": -1.0}, "amplitude must be > 0, got -1.0"),
          ("noise", {"noise": -0.5}, "noise half-width must be >= 0, got -0.5"),
          ("linear-quadratic", {"kind": "sinusoid-linear", "quadratic": 0.1},
           "quadratic must be 0 for kind 'sinusoid-linear'")]),
    # a spec of finite fields can still make a value past float64: 1e305 * 100^2 overflows, and
    # 2 pi k / 1e-320 is inf, whose sine is nan
    *((f"generated-values-not-finite-{case}", partial(generate, GeneratorSpec(**fields)),
       ValueError, NOT_FINITE) for case, fields in [
          ("quadratic", {"kind": "sinusoid-quadratic", "quadratic": 1e305}),
          ("period", {"period": 1e-320})]),
    # a relative bound: an RMSE that underflowed to 0 below a nonzero MAE is caught
    ("test_mae_above_rmse_is_refused", partial(BacktestReport, 6.7e-201, 0.0, None, 0, None),
     ValueError, "MAE cannot exceed RMSE"),
    ("TestMetrics.test_length_mismatch", partial(error_metrics, [1, 2], [1, 2, 3]), ValueError,
     "length mismatch: 2 vs 3"),
    ("test_no_points_is_refused", partial(error_metrics, [], []), ValueError,
     "need at least 1 point to score, got 0"),
    # NgramcastError: a valid call on a series the method cannot forecast
    ("test_degenerate_range", partial(quantize, TimeSeries([3, 3, 3]), 4), NgramcastError,
     "constant series: quantization grid is undefined"),
    ("value-range-too-wide", partial(quantize, TimeSeries([-1e308, 1e308]), 2), NgramcastError,
     "value range [-1e+308, 1e+308] is too wide: max - min overflows float64"),
    ("test_step_underflow", partial(quantize, TimeSeries([0.0, 2.5e-321]), 1012), NgramcastError,
     "value range [0.0, 2.5e-321] is too narrow for 1012 levels: the grid step underflows float64"),
    # a backtest counts the held-out tail: Holt needs a two-row prefix, and a too-short prefix
    # names the caller's series, not the prefix
    *((name, call, SeriesTooShort, SHORT.format(length, minimum), minimum)
      for name, call, length, minimum in [
          ("TestCandidateStarts.test_too_short", partial(MATCH_40, 20, 20, DIFF), 40, 41),
          ("TestLinguistic.test_too_short", partial(forecast, TimeSeries(np.arange(40.0) % 7),
                                                    ForecastConfig(20, 1.0)), 40, 41),
          ("TestHolt.test_too_short", partial(forecast_holt, TimeSeries([1.0]), HoltConfig(3)),
           1, 2),
          ("TestBacktest.test_too_short",
           partial(holdout_backtest, TimeSeries(np.arange(5.0)), HoltConfig(5)), 5, 7),
          ("test_holt_needs_a_two_row_prefix",
           partial(holdout_backtest, TimeSeries([1, 2, 3]), HoltConfig(5)), 3, 7),
          *((f"test_too_short_prefix_names_the_whole_series-{case}",
             partial(holdout_backtest, generate(GeneratorSpec(length=7)), config), 7, minimum)
            for case, config, minimum in [("phrase", ForecastConfig(5, 1.0), 16),
                                          ("holt", HoltConfig(6), 8)])]),
    # find_best_match(TimeSeries(values), N, P, CORR, detrend). The float mean of 1/3 is
    # inexact and a detrended constant is rounding noise, so a constant query would score
    # r = +-1 against the constant windows before it. Ten values of 1/3 have no r; detrended,
    # they are a ramp of rounding residues (r = +-0.0474). A line detrends to rounding noise.
    *((name, partial(find_best_match, TimeSeries(values), *args), NoValidCandidate, message)
      for name, values, args, message in [
          *((f"test_constant_query_has_no_correlation-{case}", SINE_THEN_THIRDS,
             (10, 5, CORR, trend), "the query, the last 10 values, is constant: r is undefined")
            for case, trend in TRENDS),
          *((f"test_constant_candidate_has_no_correlation-{tail}-{case}", [1 / 3] * 11 + [tail],
             (10, 1, CORR, trend), EXCLUDED) for tail in (0.9, -0.4) for case, trend in TRENDS),
          ("test_no_valid_candidate_under_correlation", [1] * 28 + [2, 3], (3, 2, CORR), EXCLUDED),
          ("test_detrended_line_has_no_correlation-line-query", [2, 4, 6, 8, 0, 1, 2, 3, 4],
           (4, 1, CORR, True), EXCLUDED),
          ("test_detrended_line_has_no_correlation-line-candidates", [2, 4, 6, 8, 10, 3],
           (4, 1, CORR, True), EXCLUDED)]),
    ("test_pure_line_correlation_has_no_candidate", partial(
        forecast, TimeSeries(np.arange(1.0, 101.0)), ForecastConfig(5, 2.0, 99, CORR, LINEAR)),
     NoValidCandidate, EXCLUDED),
    *((f"test_overflowing_trend_is_a_library_error-{criterion.value}", partial(forecast, TimeSeries(
        1e306 * np.arange(1, 61)), ForecastConfig(20, None, 32, criterion, LINEAR)), NgramcastError,
       TOO_LARGE_VALUES.format("6e+307", "the linear trend", "its fit or its transfer overflows"))
      for criterion in (DIFF, CORR)),
    # the best window's L1 sum overflows, with no trend and with one
    *((f"score-past-float64-{case}", partial(forecast, TimeSeries(values), config),
       NgramcastError, TOO_LARGE_VALUES.format(shown, "the difference criterion",
                                               "the best window's score overflows"))
      for case, values, config, shown in [
          ("none", [0.0] * 55 + [1.5e308] * 5, ForecastConfig(5), "1.5e+308"),
          ("linear", [5e307, 0, 5e307, -5e307, 5e307, 0, 0, 0],
           ForecastConfig(1, 5.0, 4, DIFF, LINEAR), "5e+307")]),
    ("test_overflow_is_a_library_error", partial(forecast_holt, TimeSeries(1e308 * np.array(
        [1.0, -1.5] * 10)), HoltConfig(5)), NgramcastError,
     TOO_LARGE_VALUES.format("1.5e+308", "Holt smoothing", "the level and trend overflow")),
    *((f"test_errors_past_float64_are_refused-{case}", partial(error_metrics, f, a),
       NgramcastError, "the forecast errors are too large: RMSE overflows float64")
      for case, f, a in [("one", [1.5e308], [-1.5e308]),
                         ("two", [1e308, -1e308], [-1e308, 1e308])]),
]


@pytest.mark.parametrize("call, kind, message, minimum", [
    pytest.param(call, kind, message, *minimum or [None], id=name)
    for name, call, kind, message, *minimum in REFUSALS])
def test_refusal(call, kind, message, minimum):
    """The exact type, not a subclass, and the whole message, with every warning an error."""
    with warnings.catch_warnings(), pytest.raises(Exception) as caught:
        warnings.simplefilter("error")
        call()
    assert (type(caught.value), str(caught.value)) == (kind, message)
    assert getattr(caught.value, "minimum", None) == minimum
