import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from ngramcast import (
    ForecastConfig,
    HoltConfig,
    SimilarityCriterion,
    TimeSeries,
    TrendMode,
    forecast,
)
from ngramcast.errors import NgramcastError, NoValidCandidate, SeriesTooShort
from ngramcast.evaluation import GeneratorSpec, clean_values, generate
from ngramcast.forecasting import forecast_holt
from ngramcast.series import quantize

DIFF = SimilarityCriterion.DIFFERENCE
CORR = SimilarityCriterion.CORRELATION


class TestWindowLength:
    def test_unit_multiplier(self):
        assert ForecastConfig(20, 1.0).window_length == 20

    def test_rounds_up(self):
        assert ForecastConfig(3, 2.5).window_length == 8

    def test_exact_product_not_rounded(self):
        assert ForecastConfig(10, 1.5).window_length == 15

    def test_window_too_small(self):
        message = r"^derived window length 1 is below 2 \(horizon=1, multiplier=0\.5\)$"
        with pytest.raises(ValueError, match=message):
            ForecastConfig(1, 0.5)

    def test_explicit_window_too_small(self):
        with pytest.raises(ValueError, match=r"^window must be >= 2, got 1$"):
            ForecastConfig(5, window=1)

    def test_overflowing_product_names_horizon_and_multiplier(self):
        message = (r"^multiplier 1e\+308 times horizon 5 is too large:"
                   r" the window length must be below 2\^53$")
        with pytest.raises(ValueError, match=message):
            ForecastConfig(5, 1e308)

    @pytest.mark.parametrize("horizon, multiplier, shown", [
        (5, 1e300, r"1e\+300"), (4, 2.5e15, r"2500000000000000\.0")], ids=["5e300", "1e16"])
    def test_inexact_product_names_horizon_and_multiplier(self, horizon, multiplier, shown):
        # 5e300 and 1e16 are finite, but ceil is exact only below 2^53
        message = (rf"^multiplier {shown} times horizon {horizon} is too large:"
                   r" the window length must be below 2\^53$")
        with pytest.raises(ValueError, match=message):
            ForecastConfig(horizon, multiplier)

    def test_window_needs_no_product(self):
        assert ForecastConfig(5, 1e308, window=4).window_length == 4

    def test_horizon_below_1(self):
        with pytest.raises(ValueError, match=r"^horizon must be >= 1, got 0$"):
            ForecastConfig(horizon=0)


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
        if horizon < 5:
            assert 2.0 < config.multiplier <= 5.0
        else:
            assert config.multiplier == 1.0
        assert config.multiplier_check == (True, "ok")

    def test_explicit_window_gives_none(self):
        # the multiplier sets no window length here, so there is nothing to check
        assert ForecastConfig(10, 3.0, window=4).multiplier_check is None


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

    def test_too_short(self):
        series = TimeSeries(np.arange(40, dtype=float) % 7)
        with pytest.raises(SeriesTooShort):
            forecast(series, ForecastConfig(horizon=20, multiplier=1.0))

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

    def test_pure_line_correlation_has_no_candidate(self):
        series = TimeSeries(np.arange(1.0, 101.0))
        config = ForecastConfig(
            horizon=5, multiplier=2.0, levels=99, criterion=CORR,
            trend_mode=TrendMode.LINEAR,
        )
        with pytest.raises(NoValidCandidate):
            forecast(series, config)

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

    @pytest.mark.parametrize("criterion", [DIFF, CORR], ids=["difference", "correlation"])
    def test_overflowing_trend_is_a_library_error(self, criterion):
        # the trend fits of the query and of every candidate overflow: no numpy warning escapes
        series = TimeSeries(1e306 * np.arange(1, 61))
        config = ForecastConfig(horizon=20, criterion=criterion, trend_mode=TrendMode.LINEAR)
        with pytest.raises(NgramcastError, match="^values up to 6e\\+307 are too large for the linear"):
            forecast(series, config)


class TestHolt:
    def test_constant_series(self):
        series = TimeSeries(np.full(10, 5.0))
        for xi in (0.0, 0.3, 1.0):
            result = forecast_holt(series, HoltConfig(6, xi=xi, phi=0.4))
            assert result.values == (5.0,) * 6

    def test_exact_on_lines(self):
        series = TimeSeries(np.arange(1.0, 13.0))
        for xi in (0, 0.25, 0.5, 0.75, 1):
            for phi in (0, 0.25, 0.5, 0.75, 1):
                result = forecast_holt(series, HoltConfig(4, xi=xi, phi=phi))
                assert np.allclose(result.values, [13, 14, 15, 16], atol=1e-9)

    def test_hand_computed_recurrence(self):
        # [1,3,2,4], xi=phi=0.5: level/trend pairs step through
        # (1,2) -> (3,2) -> (3.5,1.25) -> (4.375,1.0625)
        series = TimeSeries(np.array([1.0, 3.0, 2.0, 4.0]))
        result = forecast_holt(series, HoltConfig(2, xi=0.5, phi=0.5))
        assert result.values == pytest.approx((5.4375, 6.5), abs=1e-12)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            forecast_holt(TimeSeries(np.array([1.0])), HoltConfig(3))

    def test_overflow_is_a_library_error(self):
        series = TimeSeries(1e308 * np.array([1.0, -1.5] * 10))
        with pytest.raises(NgramcastError, match="^values up to 1.5e\\+308 are too large for Holt"):
            forecast_holt(series, HoltConfig(5))

    def test_forecast_runs_holt_for_a_holt_config(self):
        series = generate(GeneratorSpec(length=60, noise=0.2, seed=5))
        for horizon, xi, phi in [(1, 0.5, 0.5), (7, 0.2, 0.9), (20, 1.0, 0.0)]:
            config = HoltConfig(horizon, xi, phi)
            got, want = forecast(series, config), forecast_holt(series, config)
            assert [v.hex() for v in got.values] == [v.hex() for v in want.values]
            assert (got.matched_start, got.score, got.method) == (0, 0.0, "holt")

    def test_coefficient_bounds(self):
        with pytest.raises(ValueError):
            HoltConfig(5, xi=1.5)
        with pytest.raises(ValueError):
            HoltConfig(5, phi=-0.1)

    def test_horizon_is_checked_after_the_coefficients(self):
        # with two bad values the CLI names the same one as when the horizon was checked later
        with pytest.raises(ValueError, match="^horizon must be >= 1, got 0$"):
            HoltConfig(0)
        with pytest.raises(ValueError, match="^xi must be in"):
            HoltConfig(0, xi=2.0)


SHAPES = st.one_of(
    st.lists(st.floats(-1, 1), min_size=1, max_size=60),
    st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=60),
    st.integers(1, 60).map(lambda k: [float(i) for i in range(1, k + 1)]),
)
# value scales from subnormal to near the float64 limit, the extremes drawn often
EXPONENTS = st.integers(-320, 307) | st.sampled_from([-320, -160, 306, 307])
MODES = [(c, t) for c in SimilarityCriterion for t in TrendMode] + ["holt"]


@seed(20221019)
@settings(max_examples=400, deadline=None, database=None)
@given(shape=SHAPES, exponent=EXPONENTS, mode=st.sampled_from(MODES),
       horizon=st.integers(1, 12), window=st.none() | st.integers(2, 12),
       multiplier=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 5.0]),
       levels=st.integers(1, 10**6) | st.integers(1, 64),
       smoothing=st.tuples(st.floats(0, 1), st.floats(0, 1)))
def test_forecast_is_finite_or_library_error(shape, exponent, mode, horizon, window, multiplier,
                                             levels, smoothing):
    """Any scale, length, horizon, window and levels: a finite forecast or an NgramcastError."""
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
                                        trend_mode=mode[1], window=window)
        except ValueError:  # a refused argument, not a forecast
            return
        try:
            result = forecast_holt(series, config) if mode == "holt" else forecast(series, config)
        except NgramcastError:
            return
    assert len(result.values) == horizon
    assert all(math.isfinite(v) for v in result.values)
