import dataclasses
import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from ngramcast import (
    ForecastConfig,
    HoltConfig,
    SimilarityCriterion,
    TimeSeries,
    TrendMode,
    forecast,
)
from ngramcast.evaluation import GeneratorSpec, clean_values, generate, uniform_noise
from ngramcast.forecasting import forecast_holt
from ngramcast.series import NgramcastError, quantize
from test_matching import checked_pick
from test_series import exact_line

DIFF = SimilarityCriterion.DIFFERENCE
CORR = SimilarityCriterion.CORRELATION
LINEAR = TrendMode.LINEAR
ADVICE = "multiplier {} outside recommended range {}"
SHORT, LONG = "(2, 5] for horizon < 5", "[1, 2] for horizon >= 5"

# (id, ForecastConfig arguments, window[, warning[, ceiling of the exact product]]): a row states
# that ceiling only where the float64 product rounds across an integer. Each id names the test
# the row replaced.
CONFIGS = [
    ("test_unit_multiplier", (20, 1.0), 20),
    ("test_rounds_up", (3, 2.5), 8),
    ("test_exact_product_not_rounded", (10, 1.5), 15),
    ("test_no_trend_keeps_a_window_of_2", (1, 1.5), 2, ADVICE.format(1.5, SHORT)),
    ("test_levels_up_to_2_to_the_63", (5, None, 2**63 - 1), 5),
    # the top of the range at the shortest horizon it holds for
    ("test_long_horizon_ok", (5, 2.0), 10),
    ("test_short_horizon_ok", (3, 4.0), 12),
    ("test_short_horizon_warns", (3, 1.0), 3, ADVICE.format(1.0, SHORT)),
    ("test_long_horizon_warns", (10, 3.0), 30, ADVICE.format(3.0, LONG)),
    # the default multipliers give the shortest windows in range, N = 2P + 1 below P = 5
    *((f"test_default_fits_the_horizon-{p}{case}", (p, None, 32, DIFF, trend), window)
      for p, window in [(1, 3), (2, 5), (3, 7), (4, 9), (5, 5), (20, 20)]
      for case, trend in [("", TrendMode.NONE), ("-linear", LINEAR)]),
    # a multiplier that picks a window of 4 at horizon 10 is still held to its range
    ("test_recipe_multiplier_is_checked_too", (10, 0.35), 4, ADVICE.format(0.35, LONG)),
    # the float64 product is 64939.0, the exact one 64939 + 49/2^45
    ("float-product-rounds-down", (1932, 33.61231884057971), 64939,
     ADVICE.format(33.61231884057971, LONG), 64940),
]


@pytest.mark.parametrize("args, window, warning, exact", [
    pytest.param(*row, *[None] * (4 - len(row)), id=name) for name, *row in CONFIGS])
def test_config(args, window, warning, exact):
    """The config keeps its arguments, and a multiplier of None is 1.0 for P >= 5 and 2.25
    below. multiplier_check is the advisory rule, M in [1, 2] for P >= 5 and in (2, 5] below,
    with its exact message, and that message is the one warning. N is the ceiling of the float64
    product M * P, which is the exact Fraction product's ceiling unless the row states that.
    Then the row's window and warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = ForecastConfig(*args)
    horizon, multiplier = args[0], (*args, None)[1]
    m = (1.0 if horizon >= 5 else 2.25) if multiplier is None else multiplier
    assert dataclasses.astuple(config)[: len(args)] == (horizon, m, *args[2:])[: len(args)]
    ok = 1.0 <= m <= 2.0 if horizon >= 5 else 2.0 < m <= 5.0
    message = "ok" if ok else ADVICE.format(m, LONG if horizon >= 5 else SHORT)
    assert config.multiplier_check == (ok, message)
    assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, message)] * (not ok)
    assert math.ceil(m * horizon) == config.window_length == window
    assert math.ceil(Fraction(m) * horizon) == (window if exact is None else exact)
    assert warning == (None if ok else message)


@seed(20261019)
@settings(deadline=None, database=None)
@given(window=st.integers(2, 2**40), horizon=st.integers(1, 10**4))
def test_a_multiplier_gives_every_window(window, horizon):
    # M = (N - 0.5) / P, as its repr would be passed to --multiplier, makes a window of N
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # M may be outside its advisory range
        config = ForecastConfig(horizon, float(repr((window - 0.5) / horizon)))
    assert config.window_length == window


def exact_transfer(quantized, start, n, p):
    """The linear mode's forecast in exact arithmetic, sharing no code with the library:
    follower[j] - T_cand(N + j) + T_query(N + j) for j = 1..P, where the follower is the P
    values after the window at 1-based start, and T_cand and T_query are the exact
    least-squares lines over positions 1..N of that window and of the query (the last N)."""
    q = list(quantized)
    b_cand, a_cand = exact_line(q[start - 1 : start - 1 + n])
    b_query, a_query = exact_line(q[-n:])
    follower = q[start - 1 + n : start - 1 + n + p]
    return [Fraction(v) - (a_cand + b_cand * (n + j)) + (a_query + b_query * (n + j))
            for j, v in enumerate(follower, 1)]


def run(values, fields):
    """ForecastConfig(**fields), its forecast of values, and each warning (category, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = ForecastConfig(**fields)
        result = forecast(TimeSeries(values), config)
    return config, result, [(w.category, str(w.message)) for w in caught]


def hexes(result):
    """A forecast's values, start, score and method, each float by its bits."""
    return [v.hex() for v in result.values], result.matched_start, result.score.hex(), result.method


PAPER_SPEC = GeneratorSpec(length=100)
PAPER = generate(PAPER_SPEC).values  # the paper's sinusoid, period 25
AHEAD = clean_values(PAPER_SPEC, np.arange(101, 121))  # its noise-free next 20 values
TRENDED_SPEC = GeneratorSpec(kind="sinusoid-linear", length=100, slope=0.02)
TRENDED = generate(TRENDED_SPEC).values
NOISY = generate(GeneratorSpec(length=100, noise=0.15, seed=7)).values
PATTERN = np.array([0.0, 1.0, 2.0, 1.0, 0.0, -1.0, -2.0, -1.0])
CONSTANT = "constant series: quantization skipped, forecast is the constant"

# (id, values, ForecastConfig fields, facts). The facts a row may state: start; method; warns,
# the messages of its warnings; near, (continuation, largest |forecast - continuation|); grid,
# each value a level of quantize's grid; partner, (scale, offset): values * scale + offset is
# forecast as this forecast's values * scale + offset, from the same start with the same score,
# bit for bit. Each id names the test the row replaced.
PHRASES = [
    # within half a grid step of the continuation
    ("test_periodic_forecast_matches_continuation", PAPER,
     dict(horizon=20, multiplier=1.0, levels=32), dict(start=56, near=(AHEAD, np.ptp(PAPER) / 64))),
    ("test_forecast_values_are_grid_points", np.random.RandomState(20).uniform(0, 10, size=80),
     dict(horizon=5, multiplier=2.0, levels=16), dict(grid=True)),
    ("test_constant_series_shortcut", np.full(100, 5.0), dict(horizon=7), dict(warns=[CONSTANT])),
    ("test_shift_equivariance", np.random.RandomState(21).randint(0, 20, size=90).astype(float),
     dict(horizon=5, multiplier=2.0, levels=10), dict(partner=(1.0, 3.0))),
    ("test_determinism", np.random.RandomState(22).uniform(0, 1, size=70),
     dict(horizon=4, multiplier=2.0, levels=12), dict(warns=[ADVICE.format(2.0, SHORT)])),
    *((f"test_trended_periodic_series-{criterion.value}", TRENDED,
       dict(horizon=20, multiplier=1.0, levels=30, criterion=criterion, trend_mode=LINEAR),
       dict(near=(clean_values(TRENDED_SPEC, np.arange(101, 121)), 0.05 * np.ptp(TRENDED))))
      for criterion in SimilarityCriterion),
    # on a series with no trend, the linear mode keeps the plain mode's half a grid step
    ("test_trend_free_series_not_degraded", PAPER, dict(horizon=20, levels=32, trend_mode=LINEAR),
     dict(near=(AHEAD, np.ptp(PAPER) / 64))),
    # x_k = k with a unit grid step: detrended windows are exactly 0, every difference score
    # ties, and the transfer continues the line exactly
    ("test_pure_line_difference_extrapolates", np.arange(1.0, 101.0),
     dict(horizon=5, multiplier=2.0, levels=99, trend_mode=LINEAR),
     dict(near=(np.arange(101.0, 106.0), 0.0))),
    # an exactly periodic pattern plus an exact line, on a fine grid
    ("test_exact_limit_with_fine_grid", np.tile(PATTERN, 12) + 0.5 * np.arange(1, 97),
     dict(horizon=8, multiplier=1.0, levels=10**4, trend_mode=LINEAR),
     dict(near=(np.tile(PATTERN, 13)[96:104] + 0.5 * np.arange(97, 105), 1e-2))),
    *((f"test_dispatch_on_trend_mode-{trend.value}", PAPER, dict(horizon=5, trend_mode=trend),
       dict(method=method))
      for trend, method in [(TrendMode.NONE, "linguistic"), (LINEAR, "linguo-correlation")]),
    *((f"test_a_mode_named_by_its_value_runs_that_mode-{trend.value}-{criterion.value}", NOISY,
       dict(horizon=20, criterion=criterion.value, trend_mode=trend.value), {})
      for trend in TrendMode for criterion in SimilarityCriterion),
    # scaling by a power of two is exact, so the pick and its score keep every bit, also where a
    # sum of squares or their product overflows or underflows float64; under the linear trend,
    # every detrending step stays a normal float at these scales
    *((f"test_correlation_pick_is_scale_free-{trend.value}-{exponent}", NOISY * 2.0**exponent,
       dict(horizon=20, criterion=CORR, trend_mode=trend),
       dict(start=56, partner=(2.0**-exponent, 0.0)))
      for trend, exponents in [(TrendMode.NONE, (-1000, -560, -300, 500, 520, 1000)),
                               (LINEAR, (-560, -300, 500, 520))] for exponent in exponents),
    # the moment-form fit loses digits of the slope at this offset, but not of the transfer
    *((f"linear-trend-at-offset-1e12-{criterion.value}", NOISY + 1e12,
       dict(horizon=20, criterion=criterion, trend_mode=LINEAR), {})
      for criterion in SimilarityCriterion),
]


@pytest.mark.parametrize("values, fields, facts", [
    pytest.param(*row, id=name) for name, *row in PHRASES])
def test_phrase_forecast(values, fields, facts):
    """The config holds the modes its fields name. The start and score are checked_pick's on the
    quantized series, and the values its follower bit for bit; under TrendMode.LINEAR they are
    within 1e-12 max |q| of exact_transfer. A constant series takes the shortcut: the
    constant, start 0, score 0.0. A rerun gives the same bits and warnings. Then the row's
    facts."""
    config, result, warned = run(values, fields)
    _, again, rewarned = run(values, fields)
    assert (hexes(again), rewarned) == (hexes(result), warned)
    criterion = SimilarityCriterion(fields.get("criterion", "difference"))
    trend = TrendMode(fields.get("trend_mode", "none"))
    assert (config.criterion, config.trend_mode) == (criterion, trend)
    assert result.method == ("linguo-correlation" if trend is LINEAR else "linguistic")
    n, p, values = config.window_length, config.horizon, np.asarray(values, dtype=np.float64)
    if (values == values[0]).all():
        assert hexes(result)[:3] == ([values[0].hex()] * p, 0, (0.0).hex())
    else:
        q = quantize(TimeSeries(values), config.levels)[0].values.tolist()
        match = checked_pick(q, n, p, criterion, trend is LINEAR)
        assert (result.matched_start, result.score.hex()) == (match.start, float(match.score).hex())
        if trend is LINEAR:
            bound = 1e-12 * max(map(abs, q))
            exact = exact_transfer(q, match.start, n, p)
            assert len(exact) == p and all(abs(Fraction(v) - e) <= bound
                                           for v, e in zip(result.values, exact, strict=True))
        else:
            follower = q[match.start - 1 + n : match.start - 1 + n + p]
            assert hexes(result)[0] == [v.hex() for v in follower]
    assert warned == [(UserWarning, message) for message in facts.get("warns", [])]
    assert facts.get("start", result.matched_start) == result.matched_start
    assert facts.get("method", result.method) == result.method
    if "near" in facts:
        continuation, largest = facts["near"]
        assert np.abs(np.asarray(result.values) - continuation).max() <= largest
    if facts.get("grid"):
        grid = quantize(TimeSeries(values), config.levels)[1]
        levels = {grid.min + k * grid.step for k in range(grid.levels)} | {grid.max}
        assert set(result.values) <= levels
    if "partner" in facts:
        scale, offset = facts["partner"]
        _, other, other_warned = run(values * scale + offset, fields)
        mapped = [(v * scale + offset).hex() for v in result.values]
        assert (hexes(other), other_warned) == ((mapped, *hexes(result)[1:]), warned)


def holt_recurrence(values, horizon, xi, phi):
    """forecast_holt's documented recurrence in plain floats: x_hat_1 = x_1 and t_hat_1 = x_2 -
    x_1; for k = 2..K, x_hat_k = (1 - xi) x_k + xi (x_hat_{k-1} + t_hat_{k-1}) and t_hat_k =
    (1 - phi) (x_hat_k - x_hat_{k-1}) + phi t_hat_{k-1}; then x_hat_K + j t_hat_K, j = 1..P."""
    x = [float(v) for v in values]
    level, trend = x[0], x[1] - x[0]
    for k in range(1, len(x)):
        previous, level = level, (1 - xi) * x[k] + xi * (level + trend)
        trend = (1 - phi) * (level - previous) + phi * trend
    return [level + j * trend for j in range(1, horizon + 1)]


# (id, values, horizon, xi, phi[, forecast]): each id names the test the row replaced
HOLTS = [
    *((f"test_constant_series-{xi}", [5.0] * 10, 6, xi, 0.4, [5.0] * 6) for xi in (0.0, 0.3, 1.0)),
    *((f"test_exact_on_lines-{xi}-{phi}", range(1, 13), 4, xi, phi, [13, 14, 15, 16])
      for xi in (0, 0.25, 0.5, 0.75, 1) for phi in (0, 0.25, 0.5, 0.75, 1)),
    # level and trend step through (1, 2) -> (3, 2) -> (3.5, 1.25) -> (4.375, 1.0625)
    ("test_hand_computed_recurrence", [1, 3, 2, 4], 2, 0.5, 0.5, [5.4375, 6.5]),
    *((f"test_forecast_runs_holt_for_a_holt_config-{horizon}",
       generate(GeneratorSpec(length=60, noise=0.2, seed=5)).values, horizon, xi, phi)
      for horizon, xi, phi in [(1, 0.5, 0.5), (7, 0.2, 0.9), (20, 1.0, 0.0)]),
]


@pytest.mark.parametrize("values, horizon, xi, phi, expected", [
    pytest.param(*row, *[None] * (5 - len(row)), id=name) for name, *row in HOLTS])
def test_holt(values, horizon, xi, phi, expected):
    """forecast_holt gives the bits of the documented recurrence, and forecast with a HoltConfig
    gives forecast_holt's bits with start 0 and score 0.0. Then the row's own forecast."""
    series, config = TimeSeries(values), HoltConfig(horizon, xi, phi)
    result, routed = forecast_holt(series, config), forecast(series, config)
    want = [v.hex() for v in holt_recurrence(series.values, horizon, xi, phi)]
    for got in (result, routed):
        assert ([v.hex() for v in got.values], got.matched_start, got.score, got.method) == (
            want, 0, 0.0, "holt")
    assert expected is None or list(result.values) == expected


def test_k2000_scan_keeps_its_bits():
    """Start, score and forecast bits of 2000-point scans in all four modes, at three scales.

    Pinned from the scan that rebuilt positions 1..N and took ndarray.mean() for every window;
    the 100-point golden files never reach a scan this long. Its 1,961 candidates take three
    real chunks, of 819, 819 and 323 rows.
    """
    walk = np.cumsum(uniform_noise(1.0, 2000, 16))  # sequential sums: the same bits everywhere
    digest = hashlib.sha256()
    for scale, offset in [(1.0, 0.0), (1e-3, 1e6), (1e3, -5.0)]:
        series = TimeSeries(walk * scale + offset)
        for criterion in SimilarityCriterion:
            for trend in TrendMode:
                f = forecast(series, ForecastConfig(20, 1.0, 64, criterion, trend))
                digest.update(repr((f.matched_start, f.score.hex(),
                                    [v.hex() for v in f.values])).encode())
    assert digest.hexdigest() == "1dabcb12d67b5a8ea098d465eb4a996d77e48b5d75e4918f1102d2ee3d2d0a29"


# value scales from subnormal to near the float64 limit, the extremes drawn often; shared, so
# that a shape can be drawn for the scale it is multiplied by
EXPONENTS = st.shared(st.integers(-320, 307) | st.sampled_from([-320, -160, 306, 307]),
                      key="exponent")


def _plateau(flat, width, exponent):
    """A flat run, then a plateau that the scale 10^exponent takes to 1.5e308 (to 1.5e307 at
    most if the scale is 1 or below): at a horizon of 2 or more its best L1 score overflows."""
    return [0.0] * flat + [1.5 * 10.0 ** (308 - max(exponent, 1))] * width


SHAPES = st.one_of(
    st.lists(st.floats(-1, 1), min_size=1, max_size=60),
    st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=60),
    st.integers(1, 60).map(lambda k: [float(i) for i in range(1, k + 1)]),
    st.builds(_plateau, st.integers(1, 55), st.integers(2, 5), EXPONENTS),
)
MODES = [(c, t) for c in SimilarityCriterion for t in TrendMode] + ["holt"]


@seed(20221019)
@settings(max_examples=400, deadline=None, database=None)
@given(shape=SHAPES, exponent=EXPONENTS, mode=st.sampled_from(MODES),
       horizon=st.integers(1, 12),
       multiplier=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 5.0]),
       levels=st.integers(1, 10**6) | st.integers(1, 64),
       smoothing=st.tuples(st.floats(0, 1), st.floats(0, 1)))
# the best window's L1 score overflows to inf, though every value is finite
@example(shape=[0.0] * 55 + [1.5] * 5, exponent=308, mode=MODES[0], horizon=5, multiplier=1.0,
         levels=32, smoothing=(0.5, 0.5))
def test_forecast_is_finite_or_library_error(shape, exponent, mode, horizon, multiplier, levels,
                                             smoothing):
    """Any scale, length, horizon, multiplier and levels: a finite forecast and score, or an
    NgramcastError."""
    with np.errstate(over="ignore"):
        values = np.array(shape) * 10.0**exponent
    assume(np.isfinite(values).all())
    series = TimeSeries(values)
    with warnings.catch_warnings():
        # the constant-series note and the multiplier's range advisory; a RuntimeWarning fails
        warnings.filterwarnings("ignore", "constant series", UserWarning)
        warnings.filterwarnings("ignore", "multiplier .* outside recommended", UserWarning)
        try:
            if mode == "holt":
                config = HoltConfig(horizon, *smoothing)
            else:
                config = ForecastConfig(horizon, multiplier, levels, criterion=mode[0],
                                        trend_mode=mode[1])
        except ValueError:  # a refused argument, not a forecast
            return
        try:
            result = forecast_holt(series, config) if mode == "holt" else forecast(series, config)
        except NgramcastError:
            return
    assert len(result.values) == horizon
    assert all(math.isfinite(v) for v in (*result.values, result.score))
