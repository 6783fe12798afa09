import dataclasses
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
    forecast,
    generate,
    holdout_backtest,
)
from ngramcast.evaluation import error_metrics, uniform_noise
from ngramcast.series import pearson
from test_forecasting import hexes
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
    @pytest.mark.parametrize("count", [0, 1, 20_000])
    @pytest.mark.parametrize("seed", [0, 1, -1, 2**63, 2**64 - 1, 2**64 + 5])
    def test_noise_is_the_splitmix64_stepper_bit_for_bit(self, seed, count):
        # counts a GeneratorSpec cannot take (0) included; generate's use of it is test_generate's
        for half_width in (0.0, 1e-300, 0.15, 1.0, 3.75e5):
            got = uniform_noise(half_width, count, seed)
            assert got.dtype == np.float64 and got.shape == (count,)
            assert got.tobytes() == stepped_noise(half_width, count, seed).tobytes()


SINE = generate(GeneratorSpec(length=100)).values

# (id, GeneratorSpec fields[, check of the values and the noise]): each id names the test the
# row replaced
GENERATORS = [
    ("test_determinism", dict(length=200, noise=0.15, seed=42)),
    ("test_different_seeds_differ", dict(length=50, noise=0.15, seed=1),
     lambda values, noise: not np.array_equal(
         values, generate(GeneratorSpec(length=50, noise=0.15, seed=2)).values)),
    # k = 25 completes a period; the samples fall just short of both peaks
    ("test_sinusoid_analytic_values", {},
     lambda values, noise: abs(values[24]) <= 1e-12 and abs(np.ptp(values) - 4.0) <= 0.01),
    ("test_noise_bounds_and_mean", dict(length=10**5, noise=0.15, seed=7),
     lambda values, noise: abs(noise.mean()) <= 0.005),
    *((f"noise-{seed}-{half_width}", dict(length=20_000, noise=half_width, seed=seed))
      for seed in (0, 1, -1, 2**63, 2**64 - 1, 2**64 + 5)
      for half_width in (0.0, 1e-300, 0.15, 1.0, 3.75e5)),
    ("test_linear_trend_component", dict(kind="sinusoid-linear", slope=0.02),
     lambda values, noise: abs(values[-1] - SINE[-1] - 2.0) <= 1e-12),
    # the trend's direction flips inside the observed span
    ("test_quadratic_trend_component", dict(kind="sinusoid-quadratic", slope=0.1, quadratic=-0.001),
     lambda values, noise: abs(values[-1] - SINE[-1] - (0.1 * 100 - 0.001 * 100**2)) <= 1e-12
     and np.argmax(values - SINE) not in (0, 99)),
]


@pytest.mark.parametrize("fields, check", [
    pytest.param(*row, *[None] * (2 - len(row)), id=name) for name, *row in GENERATORS])
def test_generate(fields, check):
    """uniform_noise of length samples keeps the bits of stepped_noise, each in [-noise, noise],
    and generate adds it to the noise-free part (the spec with noise 0), bit for bit; that part
    is within 1e-12 of the documented formula, computed per value with math.sin. A rerun gives
    the same bits. Then the row's check of the values and the noise."""
    spec = GeneratorSpec(**fields)
    noise = stepped_noise(spec.noise, spec.length, spec.seed)
    assert uniform_noise(spec.noise, spec.length, spec.seed).tobytes() == noise.tobytes()
    assert np.all(np.abs(noise) <= spec.noise)
    values, clean = generate(spec).values, generate(dataclasses.replace(spec, noise=0.0)).values
    assert values.tobytes() == (clean + noise if spec.noise > 0 else clean).tobytes()
    assert generate(spec).values.tobytes() == values.tobytes()
    formula = [spec.amplitude * math.sin(2 * math.pi * k / spec.period + spec.phase)
               + spec.slope * k + spec.quadratic * k * k for k in range(1, spec.length + 1)]
    assert np.abs(clean - formula).max() <= 1e-12
    assert check is None or check(values, noise)


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


# (id, values, config, method[, largest RMSE]): each id names the test the row replaced
BACKTESTS = [
    # within half a grid step of the held-out tail
    ("test_zero_noise_periodic_backtest", SINE, ForecastConfig(20, 1.0, 32), "linguistic",
     np.ptp(SINE[:80]) / 64),
    ("test_holt_dispatch", np.arange(1.0, 31.0), HoltConfig(5, 0.5, 0.5), "holt", 0.0),
    ("test_isolation_from_holdout", generate(GeneratorSpec(length=100, noise=0.1, seed=3)).values,
     ForecastConfig(20, 1.0, 32), "linguistic"),
]


@pytest.mark.parametrize("values, config, method, rmse", [
    pytest.param(*row, *[None] * (4 - len(row)), id=name) for name, *row in BACKTESTS])
def test_backtest(values, config, method, rmse):
    """holdout_backtest's forecast is forecast of all but the last P values, bit for bit, and
    its report is error_metrics of that forecast against them; a tampered held-out tail changes
    nothing in the forecast. Then the row's method and largest RMSE."""
    prefix, tail = values[: -config.horizon], values[-config.horizon :]
    report, result = holdout_backtest(TimeSeries(values), config)
    assert hexes(result) == hexes(forecast(TimeSeries(prefix), config))
    assert repr(report) == repr(error_metrics(result.values, tail))
    tampered = TimeSeries(np.concatenate([prefix, np.full(tail.size, 99.0)]))
    assert hexes(holdout_backtest(tampered, config)[1]) == hexes(result)
    assert (result.method, len(result.values)) == (method, config.horizon)
    assert rmse is None or report.rmse <= rmse
