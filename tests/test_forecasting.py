import hashlib
import math
import warnings

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

DIFF = SimilarityCriterion.DIFFERENCE
CORR = SimilarityCriterion.CORRELATION


class TestWindowLength:
    def test_unit_multiplier(self):
        assert ForecastConfig(20, 1.0).window_length == 20

    def test_rounds_up(self):
        assert ForecastConfig(3, 2.5).window_length == 8

    def test_exact_product_not_rounded(self):
        assert ForecastConfig(10, 1.5).window_length == 15

    def test_no_trend_keeps_a_window_of_2(self):
        with pytest.warns(UserWarning, match="outside recommended"):
            assert ForecastConfig(1, 1.5).window_length == 2

    @seed(20261019)
    @settings(deadline=None, database=None)
    @given(window=st.integers(2, 2**40), horizon=st.integers(1, 10**4))
    def test_a_multiplier_gives_every_window(self, window, horizon):
        # M = (N - 0.5) / P, as its repr would be passed to --multiplier, makes a window of N
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # M may be outside its advisory range
            config = ForecastConfig(horizon, float(repr((window - 0.5) / horizon)))
        assert config.window_length == window

    def test_levels_up_to_2_to_the_63(self):
        assert ForecastConfig(5, levels=2**63 - 1).levels == 2**63 - 1


class TestMultiplierCheck:
    def test_long_horizon_ok(self):
        assert ForecastConfig(20, 1.0).multiplier_check == (True, "ok")

    def test_short_horizon_ok(self):
        assert ForecastConfig(3, 4.0).multiplier_check == (True, "ok")

    def test_short_horizon_warns(self):
        message = r"^multiplier 1\.0 outside recommended range \(2, 5\] for horizon < 5$"
        with pytest.warns(UserWarning, match=message):
            ok, msg = ForecastConfig(3, 1.0).multiplier_check
        assert not ok
        assert "(2, 5]" in msg

    def test_long_horizon_warns(self):
        with pytest.warns(UserWarning, match=r"\[1, 2\]"):
            ok, msg = ForecastConfig(10, 3.0).multiplier_check
        assert not ok
        assert "[1, 2]" in msg

    @pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5, 20])
    def test_default_fits_the_horizon(self, horizon):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = ForecastConfig(horizon)
            assert ForecastConfig(horizon, trend_mode=TrendMode.LINEAR).window_length >= 3
        if horizon < 5:
            assert 2.0 < config.multiplier <= 5.0
        else:
            assert config.multiplier == 1.0
        assert config.multiplier_check == (True, "ok")

    def test_recipe_multiplier_is_checked_too(self):
        # a multiplier that picks a window of 4 at horizon 10 is still held to its range
        with pytest.warns(UserWarning, match=r"\[1, 2\]"):
            config = ForecastConfig(10, 0.35)
        assert config.window_length == 4
        ok, msg = config.multiplier_check
        assert not ok
        assert "[1, 2]" in msg


class TestLinguistic:
    def test_periodic_forecast_matches_continuation(self):
        spec = GeneratorSpec(length=100)
        series = generate(spec)
        config = ForecastConfig(horizon=20, multiplier=1.0, levels=32)
        result = forecast(series, config)
        continuation = clean_values(spec, np.arange(101, 121))
        step = (series.values.max() - series.values.min()) / 32
        assert result.matched_start == 56
        assert len(result.values) == 20
        assert np.all(np.abs(np.asarray(result.values) - continuation) <= step / 2 + 1e-9)

    def test_forecast_values_are_grid_points(self):
        rng = np.random.RandomState(20)
        series = TimeSeries(rng.uniform(0, 10, size=80))
        config = ForecastConfig(horizon=5, multiplier=2.0, levels=16)
        result = forecast(series, config)
        grid = quantize(series, 16)[1]
        points = grid.min + grid.step * np.arange(grid.levels + 1)
        for v in result.values:
            assert np.min(np.abs(points - v)) <= 1e-9

    def test_constant_series_shortcut(self):
        series = TimeSeries(np.full(100, 5.0))
        config = ForecastConfig(horizon=7)
        with pytest.warns(UserWarning):
            result = forecast(series, config)
        assert result.values == (5.0,) * 7

    def test_shift_equivariance(self):
        rng = np.random.RandomState(21)
        vals = rng.randint(0, 20, size=90).astype(float)
        config = ForecastConfig(horizon=5, multiplier=2.0, levels=10)
        base = forecast(TimeSeries(vals), config)
        shifted = forecast(TimeSeries(vals + 3.0), config)
        assert shifted.matched_start == base.matched_start
        assert np.allclose(
            np.asarray(shifted.values), np.asarray(base.values) + 3.0, atol=1e-9
        )

    def test_determinism(self):
        rng = np.random.RandomState(22)
        vals = rng.uniform(0, 1, size=70)
        with pytest.warns(UserWarning, match="outside recommended range"):
            config = ForecastConfig(horizon=4, multiplier=2.0, levels=12)
        a = forecast(TimeSeries(vals), config)
        b = forecast(TimeSeries(vals), config)
        assert a.values == b.values
        assert a.matched_start == b.matched_start


class TestLinguoCorrelation:
    def test_trended_periodic_series(self):
        spec = GeneratorSpec(kind="sinusoid-linear", length=100, slope=0.02)
        series = generate(spec)
        continuation = clean_values(spec, np.arange(101, 121))
        value_range = series.values.max() - series.values.min()
        for crit in (DIFF, CORR):
            config = ForecastConfig(
                horizon=20, multiplier=1.0, levels=30, criterion=crit,
                trend_mode=TrendMode.LINEAR,
            )
            result = forecast(series, config)
            rmse = np.sqrt(np.mean((np.asarray(result.values) - continuation) ** 2))
            assert rmse <= 0.05 * value_range

    def test_trend_free_series_not_degraded(self):
        spec = GeneratorSpec(length=100)
        series = generate(spec)
        continuation = clean_values(spec, np.arange(101, 121))
        plain = forecast(series, ForecastConfig(horizon=20, levels=32))
        trended = forecast(
            series,
            ForecastConfig(horizon=20, levels=32, trend_mode=TrendMode.LINEAR),
        )
        rmse_plain = np.sqrt(np.mean((np.asarray(plain.values) - continuation) ** 2))
        rmse_trended = np.sqrt(np.mean((np.asarray(trended.values) - continuation) ** 2))
        assert rmse_trended <= max(2 * rmse_plain, 1e-9)

    def test_pure_line_difference_extrapolates(self):
        # x_k = k with unit grid step: detrended windows are exactly zero, all
        # difference scores tie, and trend transfer continues the line exactly.
        series = TimeSeries(np.arange(1.0, 101.0))
        config = ForecastConfig(
            horizon=5, multiplier=2.0, levels=99, trend_mode=TrendMode.LINEAR
        )
        result = forecast(series, config)
        assert np.allclose(result.values, [101, 102, 103, 104, 105], atol=1e-9)

    def test_exact_limit_with_fine_grid(self):
        # exactly periodic pattern + exact line, huge S: forecast is exact
        pattern = np.array([0.0, 1.0, 2.0, 1.0, 0.0, -1.0, -2.0, -1.0])
        k = np.arange(1, 97)
        vals = np.tile(pattern, 12) + 0.5 * k
        series = TimeSeries(vals)
        config = ForecastConfig(
            horizon=8, multiplier=1.0, levels=10**4, trend_mode=TrendMode.LINEAR
        )
        result = forecast(series, config)
        expected = np.tile(pattern, 13)[96:104] + 0.5 * np.arange(97, 105)
        assert np.allclose(result.values, expected, atol=1e-2)

    def test_dispatch_on_trend_mode(self):
        spec = GeneratorSpec(length=100)
        series = generate(spec)
        assert forecast(series, ForecastConfig(horizon=5)).method == "linguistic"
        assert (
            forecast(
                series, ForecastConfig(horizon=5, trend_mode=TrendMode.LINEAR)
            ).method
            == "linguo-correlation"
        )

    @pytest.mark.parametrize("criterion", SimilarityCriterion, ids=lambda c: c.value)
    @pytest.mark.parametrize("trend", TrendMode, ids=lambda t: t.value)
    def test_a_mode_named_by_its_value_runs_that_mode(self, criterion, trend):
        series = generate(GeneratorSpec(length=100, noise=0.15, seed=7))
        config = ForecastConfig(20, criterion=criterion.value, trend_mode=trend.value)
        assert (config.criterion, config.trend_mode) == (criterion, trend)
        assert forecast(series, config) == forecast(series, ForecastConfig(20, None, 32, criterion,
                                                                           trend))

    @pytest.mark.parametrize("trend, exponent", [
        *[(TrendMode.NONE, e) for e in (-1000, -560, -300, 500, 520, 1000)],
        # every detrending step stays a normal float at these scales
        *[(TrendMode.LINEAR, e) for e in (-560, -300, 500, 520)],
    ])
    def test_correlation_pick_is_scale_free(self, trend, exponent):
        # scaling by a power of two is exact, so the pick and its score keep every bit, also
        # where a sum of squares or their product overflows or underflows float64
        values = generate(GeneratorSpec(length=100, noise=0.15, seed=7)).values
        config = ForecastConfig(horizon=20, criterion=CORR, trend_mode=trend)
        want = forecast(TimeSeries(values), config)
        got = forecast(TimeSeries(values * 2.0**exponent), config)
        assert got.matched_start == want.matched_start == 56
        assert got.score.hex() == want.score.hex()


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
    the 100-point golden files never reach a scan this long.
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
