"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from ngramcast import (
    ForecastConfig,
    GeneratorSpec,
    HoltConfig,
    SimilarityCriterion,
    TimeSeries,
    TrendMode,
    forecast,
    forecast_holt,
    generate,
)
from ngramcast.cli import ingest_csv, main
from ngramcast.evaluation import clean_values
from ngramcast.matching import find_best_match
from ngramcast.series import detrend, fit_linear_trend, pearson, quantize

from test_matching import brute_force_best

DIFF = SimilarityCriterion.DIFFERENCE
CORR = SimilarityCriterion.CORRELATION

FIG2 = GeneratorSpec(length=100, period=25.0, amplitude=2.0)


def rmse(forecast_values, actual):
    return float(np.sqrt(np.mean((np.asarray(forecast_values) - np.asarray(actual)) ** 2)))


def report(name):
    print(f"PASS {name}")


def test_criterion_1_seasonal_no_trend():
    started = time.perf_counter()
    series = generate(FIG2)
    config = ForecastConfig(horizon=20, multiplier=1.0, levels=32, criterion=DIFF)
    result = forecast(series, config)
    continuation = clean_values(FIG2, np.arange(101, 121))
    assert result.matched_start == 56  # exactly one period before the query at 81
    assert rmse(result.values, continuation) <= 0.125
    assert time.perf_counter() - started < 1.0
    report("criterion 1: seasonal series, matched one period back, RMSE <= 0.125")


def test_criterion_2_noise_robustness():
    started = time.perf_counter()
    spec = GeneratorSpec(length=100, noise=0.15, seed=7)
    series = generate(spec)
    config = ForecastConfig(horizon=20, multiplier=1.0, levels=32, criterion=DIFF)
    result = forecast(series, config)
    continuation = clean_values(FIG2, np.arange(101, 121))
    assert rmse(result.values, continuation) <= 0.30
    assert time.perf_counter() - started < 1.0
    report("criterion 2: noisy seasonal series, RMSE <= 0.30 without smoothing")


def test_criterion_3_linear_trend_both_criteria():
    spec = GeneratorSpec(kind="sinusoid-linear", length=100, slope=0.02)
    series = generate(spec)
    continuation = clean_values(spec, np.arange(101, 121))
    bound = 0.05 * (series.values.max() - series.values.min())
    for criterion in (DIFF, CORR):
        config = ForecastConfig(
            horizon=20, multiplier=1.0, levels=30, criterion=criterion,
            trend_mode=TrendMode.LINEAR,
        )
        result = forecast(series, config)
        assert rmse(result.values, continuation) <= bound, criterion
    report("criterion 3: linear trend, RMSE <= 5% of range for both criteria")


def test_criterion_4_trend_mode_on_trend_free_series():
    series = generate(FIG2)
    continuation = clean_values(FIG2, np.arange(101, 121))
    config = ForecastConfig(
        horizon=20, multiplier=1.0, levels=32, criterion=DIFF,
        trend_mode=TrendMode.LINEAR,
    )
    result = forecast(series, config)
    assert rmse(result.values, continuation) <= 0.25  # 2x the criterion-1 bound
    report("criterion 4: trend mode on trend-free series, RMSE <= 0.25")


def test_criterion_5_nonlinear_trend_beats_holt():
    spec = GeneratorSpec(
        kind="sinusoid-quadratic", length=100, slope=0.1, quadratic=-0.001
    )
    series = generate(spec)
    value_range = series.values.max() - series.values.min()
    continuation_20 = clean_values(spec, np.arange(101, 121))
    config = ForecastConfig(
        horizon=20, multiplier=1.0, levels=30, criterion=DIFF,
        trend_mode=TrendMode.LINEAR,
    )
    linguistic_rmse = rmse(forecast(series, config).values, continuation_20)

    grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    for xi in grid:
        for phi in grid:
            holt_rmse = rmse(
                forecast_holt(series, HoltConfig(xi, phi), 20).values, continuation_20
            )
            assert linguistic_rmse < holt_rmse, (xi, phi)

    # short horizon: Holt usable with suitably chosen coefficients
    continuation_5 = clean_values(spec, np.arange(101, 106))
    best_short = min(
        rmse(forecast_holt(series, HoltConfig(xi, phi), 5).values, continuation_5)
        for xi in grid
        for phi in grid
    )
    assert best_short <= 0.10 * value_range
    report("criterion 5: linguistic beats Holt at P=20 on every grid point; Holt short-term OK")


def test_criterion_6_oracle_equivalence():
    rng = np.random.RandomState(123)
    checked = 0
    for trial in range(100):
        k = rng.randint(15, 201)
        vals = rng.uniform(-5, 5, size=k)
        p = rng.randint(1, 8)
        max_n = k - p - 1
        if max_n < 3:
            continue
        n = rng.randint(3, min(max_n, 40) + 1)
        series = TimeSeries(vals)
        for criterion in (DIFF, CORR):
            for detrend_mode in (False, True):
                match = find_best_match(series, n, p, criterion, detrend_mode)
                start, score = brute_force_best(vals, n, p, criterion, detrend_mode)
                assert match.start == start
                assert match.score == pytest.approx(score, abs=1e-12)
        checked += 1
    assert checked >= 90
    report(f"criterion 6: matcher agrees with brute force on {checked} random series")


def test_criterion_7_numerical_properties():
    rng = np.random.RandomState(456)

    # quantization error bound and idempotence
    for _ in range(30):
        vals = rng.uniform(-8, 8, size=50)
        levels = rng.randint(1, 64)
        q, grid = quantize(TimeSeries(vals), levels)
        assert np.all(np.abs(q.values - vals) <= grid.step / 2 + 1e-12)
        q2, _ = quantize(q, levels)
        assert np.allclose(q2.values, q.values, atol=1e-12, rtol=0)

    # Pearson range and affine invariance
    for _ in range(30):
        n = rng.randint(3, 25)
        a = rng.uniform(-5, 5, size=n)
        b = rng.uniform(-5, 5, size=n)
        r = pearson(a, b)
        assert -1.0 <= r <= 1.0
        c, d = rng.uniform(0.1, 3), rng.uniform(-5, 5)
        assert abs(pearson(a, c * b + d) - r) <= 1e-9

    # regression exactness on lines and optimality under perturbation
    for _ in range(30):
        slope, intercept = rng.uniform(-3, 3), rng.uniform(-5, 5)
        n = rng.randint(2, 30)
        x = np.arange(1, n + 1)
        line = slope * x + intercept
        t = fit_linear_trend(line)
        assert abs(t.slope - slope) <= 1e-9
        assert abs(t.intercept - intercept) <= 1e-9

        w = rng.uniform(-5, 5, size=n) if n > 1 else line
        t = fit_linear_trend(w)
        rss = ((w - (t.slope * x + t.intercept)) ** 2).sum()
        eps = 1e-3 * (abs(t.slope) + abs(t.intercept) + 1)
        for db, da in [(eps, 0), (-eps, 0), (0, eps), (0, -eps)]:
            assert ((w - ((t.slope + db) * x + (t.intercept + da))) ** 2).sum() >= rss - 1e-15

        resid = detrend(w, t)
        bound = 1e-9 * (w.max() - w.min() + 1)
        assert abs(fit_linear_trend(resid).slope) <= bound

    # Holt exactness on lines across the coefficient grid
    series = TimeSeries(2.5 * np.arange(1, 16) - 4.0)
    expected = 2.5 * np.arange(16, 21) - 4.0
    for xi in (0, 0.25, 0.5, 0.75, 1):
        for phi in (0, 0.25, 0.5, 0.75, 1):
            result = forecast_holt(series, HoltConfig(xi, phi), 5)
            assert np.allclose(result.values, expected, atol=1e-9)

    report("criterion 7: numerical property suite (quantize/pearson/regression/Holt)")


def test_criterion_8_cli_determinism_and_roundtrip(tmp_path):
    src = tmp_path / "series.csv"
    args = ["generate", "--length", "100", "--noise", "0.15", "--seed", "11",
            "--output", str(src)]
    assert main(args) == 0
    again = tmp_path / "series2.csv"
    assert main(args[:-1] + [str(again)]) == 0
    assert src.read_bytes() == again.read_bytes()

    series, _ = ingest_csv(src)
    expected = generate(GeneratorSpec(length=100, noise=0.15, seed=11))
    assert np.array_equal(series.values, expected.values)

    pairs = []
    for name in ("run1", "run2"):
        out = tmp_path / f"{name}.csv"
        rep = tmp_path / f"{name}.json"
        plot = tmp_path / f"{name}_plot.csv"
        rc = main(
            ["forecast", "--input", str(src), "--horizon", "20",
             "--output", str(out), "--report", str(rep), "--plot-data", str(plot)]
        )
        assert rc == 0
        pairs.append((out.read_bytes(), rep.read_bytes(), plot.read_bytes()))
    assert pairs[0] == pairs[1]
    report("criterion 8: byte-identical CLI runs and exact generate/ingest round-trip")
