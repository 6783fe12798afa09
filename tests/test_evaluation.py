import math
import sys
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
from ngramcast.series import pearson
from test_series import uniform_pairs

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


# 20 predicted and 20 actual values, to be scaled by powers of two
UNSCALED = np.random.RandomState(31).uniform(-5, 5, size=(2, 20))

# (id, predicted, actual, what error_metrics must give[, ulps]): each id names the test the row
# replaced. ulps bounds MAE and MAPE against their exact means, and RMSE against the exact root
# mean square: 2 unless the row states it.
METRICS = [
    ("test_perfect_forecast", [1, 2, 3], [1, 2, 3],
     dict(mae=0.0, rmse=0.0, mape=0.0, mape_skipped=0, correlation=1.0)),
    ("test_constant_offset", [2, 3, 4], [1, 2, 3], dict(mae=1.0, rmse=1.0, correlation=1.0)),
    ("test_mape_skips_zero_actuals", [1, 1, 2], [0, 1, 1], dict(mape_skipped=1, mape=50.0)),
    ("test_mape_none_when_all_zero", [1, 2], [0, 0], dict(mape=None, mape_skipped=2)),
    # 1/3 and 0.1 have inexact float means: r would be rounding noise
    *((f"test_correlation_none_when_constant-{case}", f, a, dict(correlation=None))
      for case, f, a in [("ints", [1, 1, 1], [1, 2, 3]),
                         ("inexact-means", np.full(20, 1 / 3), np.full(20, 0.1))]),
    ("test_correlation_none_for_one_point", [1.5], [2.0],
     dict(mae=0.5, rmse=0.5, mape=25.0, mape_skipped=0, correlation=None)),
    *((f"test_mae_never_exceeds_rmse-{draw}", f, a, {})
      for draw, f, a, _ in uniform_pairs(30, 50, (2, 40))),
    # past about 2^512 the squared errors overflow float64, and below about 2^-511 they underflow
    *((f"test_scaling_by_a_power_of_two_is_exact-{power}", *np.ldexp(UNSCALED, power),
       dict(mae=math.ldexp(m.mae, power), rmse=math.ldexp(m.rmse, power), mape=m.mape,
            correlation=m.correlation))
      for m in [error_metrics(*UNSCALED)] for power in (500, 600, 1019, -600, -1000)),
    # each ratio is 1, though one error is 10^400 times the other
    ("test_errors_far_apart_in_size_keep_their_ratios", [2e200, 2e-200], [1e200, 1e-200],
     dict(mae=5e199, mape=100.0)),
    # past float64 MAPE is None and MAE and RMSE an error: never inf, nan or a warning
    ("test_mape_whose_mean_exceeds_float64_is_none", [1e10, 2.0], [1e-300, 1.0],
     dict(mape=None, mae=(1e10 - 1e-300 + 1.0) / 2, mape_skipped=0)),
    # one ratio is 1e309, past float64, but their mean times 100 is about 1e308
    ("test_mape_with_an_overflowing_ratio_is_rescaled", [10.0] * 1000, [1e-308] + [10.0] * 999,
     {}),
    ("test_largest_error_in_half_to_one_is_not_taken_for_an_overflow", [0.6 + 3e-309] + [1.0] * 199,
     [3e-309] + [1.0] * 199, dict(mape=9.999999999999998e307), 1),
    # the errors are at most 1e-10, but scaling the inputs by that overflows 1e300
    ("test_large_values_beside_a_small_largest_error", [1e300, 1e-10] + [1.0] * 998,
     [1e300, 1e-319] + [1.0] * 998, dict(mape=1.000011132941258e308)),
    # f - a overflows in the first pair; the last pair's ratio of 1 still counts
    ("test_an_overflowing_error_keeps_the_small_ratios", [1.5e308, 0.0, 0.0, 0.0, 2e-300],
     [-1.5e308, 0.0, 0.0, 0.0, 1e-300], dict(mae=6e307, mape=150.0, mape_skipped=3,
     rmse=pytest.approx(1.5e308 * (2 / math.sqrt(5)), rel=1e-15))),
]


def within(value, exact, ulps):
    """Whether value is within ulps units in its last place of the exact Fraction."""
    return abs(Fraction(value) - exact) <= ulps * Fraction(math.ulp(value))


@pytest.mark.parametrize("predicted, actual, expected, ulps", [
    pytest.param(*row, *[2] * (4 - len(row)), id=name) for name, *row in METRICS])
def test_metrics(predicted, actual, expected, ulps):
    """With every warning raised as an error, MAE and MAPE are their exact Fraction means and
    RMSE the exact root mean square, each within ulps; MAPE is None exactly when no actual is
    nonzero or its mean exceeds float64; r is pearson's; MAE <= RMSE. Then what the row
    states."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = error_metrics(predicted, actual)
    errors = [Fraction(f) - Fraction(a) for f, a in zip(predicted, actual)]
    assert within(m.mae, sum(map(abs, errors)) / len(errors), ulps)
    square = sum(e * e for e in errors) / len(errors)
    root = [max(Fraction(m.rmse) + side * ulps * Fraction(math.ulp(m.rmse)), 0) for side in (-1, 1)]
    assert root[0] ** 2 <= square <= root[1] ** 2
    ratios = [abs(e / Fraction(a)) for e, a in zip(errors, actual) if a != 0]
    mape = 100 * sum(ratios) / len(ratios) if ratios else None
    if mape is None or mape > sys.float_info.max:
        assert m.mape is None
    else:
        assert within(m.mape, mape, ulps)
    assert m.mape_skipped == len(errors) - len(ratios)
    assert repr(m.correlation) == repr(pearson(predicted, actual))
    assert m.mae <= m.rmse
    assert {key: getattr(m, key) for key in expected} == expected


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
