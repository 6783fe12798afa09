import numpy as np
import pytest

from ngramcast import (
    ForecastConfig,
    HoltConfig,
    SimilarityCriterion,
    TimeSeries,
    TrendMode,
    forecast,
    forecast_holt,
)
from ngramcast.errors import NoValidCandidate, SeriesTooShort, WindowTooSmall
from ngramcast.evaluation import GeneratorSpec, clean_values, generate
from ngramcast.forecasting import derive_window_length, validate_multiplier
from ngramcast.series import quantize

DIFF = SimilarityCriterion.DIFFERENCE
CORR = SimilarityCriterion.CORRELATION


class TestWindowLength:
    def test_unit_multiplier(self):
        assert derive_window_length(20, 1.0) == 20

    def test_rounds_up(self):
        assert derive_window_length(3, 2.5) == 8

    def test_exact_product_not_rounded(self):
        assert derive_window_length(10, 1.5) == 15

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmall):
            derive_window_length(1, 0.5)


class TestValidateMultiplier:
    def test_long_horizon_ok(self):
        assert validate_multiplier(20, 1.0) == (True, "ok")

    def test_short_horizon_ok(self):
        assert validate_multiplier(3, 4.0) == (True, "ok")

    def test_short_horizon_warns(self):
        ok, msg = validate_multiplier(3, 1.0)
        assert not ok
        assert "(2, 5]" in msg

    def test_long_horizon_warns(self):
        ok, msg = validate_multiplier(10, 3.0)
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


class TestHolt:
    def test_constant_series(self):
        series = TimeSeries(np.full(10, 5.0))
        for xi in (0.0, 0.3, 1.0):
            result = forecast_holt(series, HoltConfig(xi=xi, phi=0.4), 6)
            assert result.values == (5.0,) * 6

    def test_exact_on_lines(self):
        series = TimeSeries(np.arange(1.0, 13.0))
        for xi in (0, 0.25, 0.5, 0.75, 1):
            for phi in (0, 0.25, 0.5, 0.75, 1):
                result = forecast_holt(series, HoltConfig(xi=xi, phi=phi), 4)
                assert np.allclose(result.values, [13, 14, 15, 16], atol=1e-9)

    def test_hand_computed_recurrence(self):
        # [1,3,2,4], xi=phi=0.5: level/trend pairs step through
        # (1,2) -> (3,2) -> (3.5,1.25) -> (4.375,1.0625)
        series = TimeSeries(np.array([1.0, 3.0, 2.0, 4.0]))
        result = forecast_holt(series, HoltConfig(xi=0.5, phi=0.5), 2)
        assert result.values == pytest.approx((5.4375, 6.5), abs=1e-12)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            forecast_holt(TimeSeries(np.array([1.0])), HoltConfig(), 3)

    def test_coefficient_bounds(self):
        with pytest.raises(ValueError):
            HoltConfig(xi=1.5)
        with pytest.raises(ValueError):
            HoltConfig(phi=-0.1)
