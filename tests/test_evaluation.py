import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ngramcast import (
    ForecastConfig,
    GeneratorSpec,
    HoltConfig,
    TimeSeries,
    generate,
    holdout_backtest,
)
from ngramcast.evaluation import clean_values, error_metrics, uniform_noise

MASK64 = (1 << 64) - 1


def stepped_noise(half_width: float, count: int, seed: int) -> np.ndarray:
    """Oracle: the documented splitmix64 stepper, one Python-integer step per sample."""
    out = []
    state = seed & MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        z ^= z >> 31
        out.append((2.0 * (z / 2.0**64) - 1.0) * half_width)
    return np.array(out, dtype=np.float64)


class TestGenerator:
    def test_determinism(self):
        spec = GeneratorSpec(length=200, noise=0.15, seed=42)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec(length=50, noise=0.15, seed=1))
        b = generate(GeneratorSpec(length=50, noise=0.15, seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_sinusoid_analytic_values(self):
        series = generate(GeneratorSpec(length=100))
        # k=25 completes a period; sampled range is just shy of 2*amplitude
        assert series.values[24] == pytest.approx(0.0, abs=1e-12)
        assert series.values.max() - series.values.min() == pytest.approx(4.0, abs=0.01)

    def test_noise_bounds_and_mean(self):
        draws = uniform_noise(0.15, 10**5, seed=7)
        assert np.all(np.abs(draws) <= 0.15)
        assert abs(draws.mean()) <= 0.005

    @pytest.mark.parametrize("count", [0, 1, 20_000])
    @pytest.mark.parametrize("seed", [0, 1, -1, 2**63, 2**64 - 1, 2**64 + 5])
    def test_noise_is_the_splitmix64_stepper_bit_for_bit(self, seed, count):
        for half_width in (0.0, 1e-300, 0.15, 1.0, 3.75e5):
            got = uniform_noise(half_width, count, seed)
            want = stepped_noise(half_width, count, seed)
            assert got.dtype == np.float64 and got.shape == (count,)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_linear_trend_component(self):
        spec = GeneratorSpec(kind="sinusoid-linear", length=100, slope=0.02)
        series = generate(spec)
        sinusoid = clean_values(GeneratorSpec(length=100), np.arange(1, 101))
        assert (series.values - sinusoid)[-1] == pytest.approx(2.0, abs=1e-12)

    def test_quadratic_trend_component(self):
        spec = GeneratorSpec(
            kind="sinusoid-quadratic", length=100, slope=0.1, quadratic=-0.001
        )
        series = generate(spec)
        sinusoid = clean_values(GeneratorSpec(length=100), np.arange(1, 101))
        trend = series.values - sinusoid
        assert trend[-1] == pytest.approx(0.1 * 100 - 0.001 * 100**2, abs=1e-12)
        # trend direction flips inside the observed span
        assert np.argmax(trend) not in (0, 99)


class TestMetrics:
    def test_perfect_forecast(self):
        m = error_metrics([1, 2, 3], [1, 2, 3])
        assert (m.mae, m.rmse, m.mape, m.mape_skipped) == (0.0, 0.0, 0.0, 0)
        assert m.correlation == pytest.approx(1.0)

    def test_constant_offset(self):
        m = error_metrics([2, 3, 4], [1, 2, 3])
        assert m.mae == 1.0
        assert m.rmse == 1.0
        assert m.correlation == pytest.approx(1.0)

    def test_mape_skips_zero_actuals(self):
        m = error_metrics([1, 1, 2], [0, 1, 1])
        assert m.mape_skipped == 1
        assert m.mape == pytest.approx(50.0)

    def test_mape_none_when_all_zero(self):
        m = error_metrics([1, 2], [0, 0])
        assert m.mape is None
        assert m.mape_skipped == 2

    def test_correlation_none_when_constant(self):
        assert error_metrics([1, 1, 1], [1, 2, 3]).correlation is None
        # 1/3 and 0.1 have inexact float means: r would be rounding noise
        assert error_metrics(np.full(20, 1 / 3), np.full(20, 0.1)).correlation is None

    def test_correlation_none_for_one_point(self):
        m = error_metrics([1.5], [2.0])
        assert (m.mae, m.rmse, m.mape, m.mape_skipped, m.correlation) == (0.5, 0.5, 25.0, 0, None)

    def test_mae_never_exceeds_rmse(self):
        rng = np.random.RandomState(30)
        for _ in range(50):
            n = rng.randint(2, 40)
            f = rng.uniform(-5, 5, size=n)
            a = rng.uniform(-5, 5, size=n)
            m = error_metrics(f, a)
            assert m.mae <= m.rmse + 1e-12

    @pytest.mark.parametrize("power", [500, 600, 1019, -600, -1000])
    def test_scaling_by_a_power_of_two_is_exact(self, power):
        # from about 2^512 on the squared errors overflow float64, and below about 2^-511 they
        # underflow, so RMSE must be rescaled
        rng = np.random.RandomState(31)
        f, a = rng.uniform(-5, 5, size=20), rng.uniform(-5, 5, size=20)
        m, big = error_metrics(f, a), error_metrics(np.ldexp(f, power), np.ldexp(a, power))
        assert big.rmse == math.ldexp(m.rmse, power)
        assert big.mae == math.ldexp(m.mae, power)
        assert (big.mape, big.correlation) == (m.mape, m.correlation)

    def test_errors_far_apart_in_size_keep_their_ratios(self):
        # each ratio is 1, though one error is 10^400 times the other
        m = error_metrics([2e200, 2e-200], [1e200, 1e-200])
        assert (m.mae, m.mape) == (5e199, 100.0)


class TestMetricsPastFloat64:
    """MAPE is finite or None and MAE/RMSE finite or an error; never inf, nan or a warning."""

    def test_mape_whose_mean_exceeds_float64_is_none(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = error_metrics([1e10, 2.0], [1e-300, 1.0])
        assert m.mape is None
        assert (m.mae, m.mape_skipped) == ((1e10 - 1e-300 + 1.0) / 2, 0)

    def test_mape_with_an_overflowing_ratio_is_rescaled(self):
        # one ratio is 1e309, past float64, but their mean times 100 is about 1e308
        f, a = [10.0] * 1000, [1e-308] + [10.0] * 999
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = error_metrics(f, a)
        exact = sum(abs(Fraction(x) - Fraction(y)) / abs(Fraction(y)) for x, y in zip(f, a))
        assert m.mape == pytest.approx(float(exact / 1000 * 100), rel=1e-14)

    def test_largest_error_in_half_to_one_is_not_taken_for_an_overflow(self):
        f, a = [0.6 + 3e-309] + [1.0] * 199, [3e-309] + [1.0] * 199
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = error_metrics(f, a)
        exact = abs(Fraction(f[0]) - Fraction(a[0])) / Fraction(a[0]) / 200 * 100
        assert m.mape == 9.999999999999998e307
        assert abs(Fraction(m.mape) - exact) <= Fraction(math.ulp(m.mape))

    def test_large_values_beside_a_small_largest_error(self):
        # the errors are at most 1e-10, but scaling the inputs by that overflows 1e300
        f, a = [1e300, 1e-10] + [1.0] * 998, [1e300, 1e-319] + [1.0] * 998
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = error_metrics(f, a)
        assert m.mape == 1.000011132941258e308

    def test_an_overflowing_error_keeps_the_small_ratios(self):
        # f - a overflows in the first pair; the last pair's ratio of 1 still counts
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = error_metrics([1.5e308, 0.0, 0.0, 0.0, 2e-300], [-1.5e308, 0.0, 0.0, 0.0, 1e-300])
        assert (m.mae, m.mape, m.mape_skipped) == (6e307, 150.0, 3)
        assert m.rmse == pytest.approx(1.5e308 * (2 / math.sqrt(5)), rel=1e-15)


class TestBacktest:
    def test_zero_noise_periodic_backtest(self):
        spec = GeneratorSpec(length=100)
        series = generate(spec)
        config = ForecastConfig(horizon=20, multiplier=1.0, levels=32)
        report, result = holdout_backtest(series, config)
        step = (series.values[:80].max() - series.values[:80].min()) / 32
        assert report.rmse <= step / 2 + 1e-9
        assert result.method == "linguistic"
        assert len(result.values) == 20

    def test_holt_dispatch(self):
        series = TimeSeries(np.arange(1.0, 31.0))
        report, result = holdout_backtest(series, HoltConfig(5, 0.5, 0.5))
        assert result.method == "holt"
        assert report.rmse == pytest.approx(0.0, abs=1e-9)

    def test_isolation_from_holdout(self):
        # corrupting the held-out tail must not change the forecast
        spec = GeneratorSpec(length=100, noise=0.1, seed=3)
        series = generate(spec)
        config = ForecastConfig(horizon=20, multiplier=1.0, levels=32)
        _, result = holdout_backtest(series, config)
        tampered = series.values.copy()
        tampered[-20:] = 99.0
        _, result2 = holdout_backtest(TimeSeries(tampered), config)
        assert result.values == result2.values
