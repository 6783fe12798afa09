import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ngramcast.series import (
    LinearTrend,
    QuantizationGrid,
    TimeSeries,
    _detrend_rows,
    detrend,
    fit_linear_trend,
    pearson,
    quantize,
)


def pearson_oracle(a, b):
    # Term-by-term transcription of the correlation formula, exact rationals
    # until the final square root.
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    n = len(a)
    am = sum(a) / n
    bm = sum(b) / n
    num = sum((x - am) * (y - bm) for x, y in zip(a, b))
    ssa = sum((x - am) ** 2 for x in a)
    ssb = sum((y - bm) ** 2 for y in b)
    return float(num) / math.sqrt(float(ssa * ssb))


class TestTimeSeries:
    def test_values_are_immutable(self):
        s = TimeSeries(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.values[0] = 5.0


def uniform_draws(seed, count, low, high, size):
    """count draws of (draw, values, rng) from RandomState(seed): values = rng.uniform(low, high,
    size(rng)). A caller may draw more from rng before the next draw."""
    rng = np.random.RandomState(seed)
    for draw in range(count):
        yield draw, rng.uniform(low, high, size=size(rng)), rng


# (id, values, levels[, values quantized[, step[, mark]]]): an id names the test it replaced.
QUANTIZE = [
    ("test_values_already_on_grid_unchanged", [0, 1, 2, 3, 4], 4, [0, 1, 2, 3, 4], 1.0),
    ("test_paper_step_example", np.linspace(0, 4, 9), 32, None, 0.125),  # range 4, 32 levels
    ("test_nearest_level_rounding", [0.0, 1.30, 1.20, 4.0], 8, [0.0, 1.5, 1.0, 4.0], 0.5),
    ("test_midpoint_ties_round_up", [0.0, 0.25, 1.0], 2, [0.0, 0.5, 1.0]),
    # 5151.5 is exactly 7.5 steps of 7272 / 10 above -302.5
    ("test_exact_midpoint_goes_up", [-302.5, 6969.5, 5151.5], 10,
     [-302.5, 6969.5, -302.5 + 8 * (7272 / 10)], None, pytest.mark.xfail(strict=True, reason=(
         "ROADMAP item 6: the float step 727.2 is inexact, so (v - min) / step gives "
         "7.499999999999999 for this exact midpoint, and it goes down to level 7"))),
    *((f"test_endpoints_map_to_themselves-{draw}", values, 7)
      for draw, values, _ in uniform_draws(0, 20, -10, 10, lambda rng: 30)),
    *((f"test_error_bound_and_idempotence-{trial}", values, rng.randint(1, 40))
      for trial, values, rng in uniform_draws(1, 50, -5, 5, lambda rng: 60)),
    ("test_levels_up_to_2_to_the_63", [1.0, 2.0], 2**63 - 1),
    # max's quotient (max - min) / step is levels here, and + 0.5 rounds it to levels + 1: the
    # clip brings that index back to levels, which is pinned to max
    ("top-quotient-past-the-last-level", [0.0, 1.0], 2**52 + 1, [0.0, 1.0]),
]


@pytest.mark.parametrize("values, levels, expected, step", [
    pytest.param(*row[1:5], *[None] * (5 - len(row)), id=row[0], marks=row[5:])
    for row in QUANTIZE])
def test_quantize(values, levels, expected, step):
    """Each value gets level floor((v - min) / step + 0.5), the top one pinned to max, bit for bit:
    the exact nearest level, ties up, within step / 2. The endpoints and a second pass keep
    every bit. Then what the row states."""
    values = [float(v) for v in values]
    q, grid = quantize(TimeSeries(values), levels)
    vmin, vmax = min(values), max(values)
    assert grid == QuantizationGrid(vmin, vmax, levels, (vmax - vmin) / levels)

    def level(k):
        return vmax if k == levels else vmin + k * grid.step

    rule = [min(max(math.floor((v - vmin) / grid.step + 0.5), 0), levels) for v in values]
    assert q.values.tobytes() == np.array([level(k) for k in rule]).tobytes()
    exact_step = (Fraction(vmax) - Fraction(vmin)) / levels
    nearest = [math.floor((Fraction(v) - Fraction(vmin)) / exact_step + Fraction(1, 2))
               for v in values]
    assert rule == nearest
    assert all(abs(Fraction(x) - Fraction(v)) <= Fraction(grid.step) / 2
               for x, v in zip(q.values.tolist(), values))
    assert (q.values[values.index(vmin)], q.values[values.index(vmax)]) == (vmin, vmax)
    again, regrid = quantize(q, levels)
    assert (again.values.tobytes(), regrid) == (q.values.tobytes(), grid)
    assert expected is None or q.values.tolist() == expected
    assert step is None or grid.step == step


def mean_fit_reference(window):
    # the trend fit as it was written with ndarray.mean() and a fresh arange on every call
    y = np.asarray(window, dtype=np.float64)
    x = np.arange(1, y.size + 1, dtype=np.float64)
    x_mean = x.mean()
    y_mean = y.mean()
    slope = ((x * y).mean() - x_mean * y_mean) / ((x * x).mean() - x_mean * x_mean)
    return LinearTrend(float(slope), float(y_mean - slope * x_mean))


def mean_pearson_reference(a, b):
    # pearson as it was written with ndarray.mean(), before the all-values-equal rule
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    dx = x - x.mean()
    dy = y - y.mean()
    ssx = float(dx @ dx)
    ssy = float(dy @ dy)
    tiny = 2.0**-1022
    if not (ssx >= tiny and ssy >= tiny and tiny <= ssx * ssy < math.inf):
        if not (dx.any() and dy.any()):
            return None
        ex, ey = (math.frexp(np.abs(v).max())[1] for v in (x, y))
        if not (ex or ey):
            return math.nan
        return mean_pearson_reference(np.ldexp(x, -ex), np.ldexp(y, -ey))
    return max(-1.0, min(1.0, float(dx @ dy) / math.sqrt(ssx * ssy)))


def bits(value):
    return np.float64(value).tobytes()


# a window of 2..64 values of one magnitude, 1e-300 to 1e300, with mixed signs
WINDOWS = st.integers(2, 64).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-1, 1), min_size=n, max_size=n),
    st.lists(st.floats(-1, 1), min_size=n, max_size=n),
    st.integers(-300, 300) | st.sampled_from([-300, 300]),
))


@seed(20261019)
@settings(max_examples=600, deadline=None, database=None)
@given(case=WINDOWS)
def test_sums_over_the_count_keep_the_bits_of_mean(case):
    """fit_linear_trend, detrend and pearson give the bits of the ndarray.mean() formulas."""
    a, b, exponent = case
    x, y = np.array(a) * 10.0**exponent, np.array(b) * 10.0**exponent
    with np.errstate(all="ignore"):  # the fit of values near 1e300 overflows on both sides
        trend, expected = fit_linear_trend(x), mean_fit_reference(x)
        assert (bits(trend.slope), bits(trend.intercept)) == (
            bits(expected.slope), bits(expected.intercept))
        assert detrend(x, trend).tobytes() == (x - trend.at(np.arange(1, x.size + 1))).tobytes()
        # the scan's helper, on the window alone and as a row of a block
        assert _detrend_rows(x.copy()).tobytes() == detrend(x, trend).tobytes()
        assert _detrend_rows(np.stack([y, x]))[1].tobytes() == detrend(x, trend).tobytes()
        r, expected_r = pearson(x, y), mean_pearson_reference(x, y)
    if (x == x[0]).all() or (y == y[0]).all():
        assert r is None
    else:
        assert bits(r) == bits(expected_r)


def exact_line(window):
    """(slope, intercept) of the least-squares line through (1, w[0]) .. (n, w[n-1]), exactly."""
    y = [Fraction(v) for v in window]
    x_mean, y_mean = Fraction(len(y) + 1, 2), sum(y) / len(y)
    slope = (sum((x - x_mean) * (v - y_mean) for x, v in enumerate(y, 1))
             / sum((x - x_mean) ** 2 for x in range(1, len(y) + 1)))
    return slope, y_mean - slope * x_mean


# (id, window[, line[, residuals[, (positions, values)]]]): the line fit_linear_trend gives, and
# what detrend and LinearTrend.at give on that line as stated and as fitted, each at 1e-12
TRENDS = [
    ("test_exact_line", [3, 5, 7], (2, 1)),
    # the other two windows' residuals are stated in the next two rows
    ("test_detrend_examples", [3, 5, 7], (2, 1), [0, 0, 0]),
    ("test_extrapolate_continues_fit", [3, 5, 7], (2, 1), None, ([4, 5], [9, 11])),
    ("test_constant_window", [1, 1, 1, 1], (0, 1), [0, 0, 0, 0]),
    # mean(xy) = 23/4, mean(x) = 5/2, mean(y) = 2, mean(x^2) = 15/2: B = (23/4 - 5) / (15/2 -
    # 25/4) = 0.6 and A = 2 - 0.6 * 2.5 = 0.5
    ("test_normal_equations_hand_solution", [1, 2, 2, 3], (0.6, 0.5), [-0.1, 0.3, -0.3, 0.1],
     ([5, 6, 7], [3.5, 4.1, 4.7])),
    ("test_extrapolate", [5, 5, 5], (0, 5), None, ([1, 2, 3], [5, 5, 5])),
    *((f"test_optimality_under_perturbation-{draw}", window)
      for draw, window, _ in uniform_draws(2, 30, -5, 5, lambda rng: rng.randint(2, 20))),
    *((f"test_detrend_then_fit_slope_near_zero-{draw}", window)
      for draw, window, _ in uniform_draws(3, 30, -10, 10, lambda rng: rng.randint(2, 25))),
]


@pytest.mark.parametrize("window, line, residuals, ahead", [
    pytest.param(*row[1:], *[None] * (5 - len(row)), id=row[0]) for row in TRENDS])
def test_trend(window, line, residuals, ahead):
    """fit_linear_trend is the exact least-squares line at 1e-12, and LinearTrend.at continues
    it; no line eps away fits better; detrended by it, the window refits to a line near 0. Then
    the row's own line, residuals and values ahead, on the stated line and on the fitted one."""
    n, w = len(window), np.asarray(window, dtype=np.float64)
    trend = fit_linear_trend(window)
    slope, intercept = exact_line(window)
    assert abs(trend.slope - slope) <= 1e-12 and abs(trend.intercept - intercept) <= 1e-12
    x = np.arange(1, n + 4)  # the window's positions and three past it
    assert all(abs(Fraction(v) - (intercept + slope * int(k))) <= 1e-12
               for k, v in zip(x, trend.at(x).tolist()))
    rss = ((w - trend.at(x[:n])) ** 2).sum()
    eps = 1e-3 * (abs(trend.slope) + abs(trend.intercept) + 1)
    for db, da in [(eps, 0), (-eps, 0), (0, eps), (0, -eps)]:
        assert ((w - LinearTrend(trend.slope + db, trend.intercept + da).at(x[:n])) ** 2).sum() \
            >= rss - 1e-15
    refit = fit_linear_trend(detrend(window, trend))
    bound = 1e-9 * (w.max() - w.min() + 1)
    assert abs(refit.slope) <= bound and abs(refit.intercept) <= bound
    for stated in [trend] + ([LinearTrend(*line)] if line else []):
        assert line is None or np.allclose([stated.slope, stated.intercept], line, 0, 1e-12)
        if residuals is not None:  # the residuals of a least-squares line sum to 0
            out = detrend(window, stated)
            assert np.allclose(out, residuals, 0, 1e-12) and abs(out.sum()) <= 1e-12
        assert ahead is None or np.allclose(stated.at(ahead[0]), ahead[1], 0, 1e-12)


def unit(values):
    """The values as Fractions, scaled exactly by the power of two that puts the largest
    magnitude in [0.5, 1): pearson_oracle's float sums then neither overflow nor underflow."""
    scale = Fraction(2) ** -math.frexp(max(map(abs, values)))[1]
    return [Fraction(v) * scale for v in values]


def uniform_pairs(seed, count, sizes, scale=1.0):
    """count draws of (draw, a, b, rng) from RandomState(seed): n = rng.randint(*sizes), then a
    and b, n uniform(-5, 5) values each times scale. A caller may draw more from rng in between."""
    rng = np.random.RandomState(seed)
    for draw in range(count):
        n = rng.randint(*sizes)
        yield draw, rng.uniform(-5, 5, size=n) * scale, rng.uniform(-5, 5, size=n) * scale, rng


def equal_draws(seed, count):
    """count draws of (draw, c, d) from default_rng(seed): n in [2, 41), c is n equal values of
    uniform(-1, 1) times 10^k for k in [-300, 300], and d is n uniform(-1, 1) values."""
    rng = np.random.default_rng(seed)
    for draw in range(count):
        n = int(rng.integers(2, 41))
        constant = np.full(n, rng.uniform(-1, 1) * 10.0 ** int(rng.integers(-300, 301)))
        yield draw, constant, rng.uniform(-1, 1, n)


# (id, a, b[, repr of r[, (c, d)]]): each id names the test the row replaced
PEARSONS = [
    ("test_exact_linear_relations-up", [1, 2, 3], [2, 4, 6], "1.0"),
    ("test_exact_linear_relations-down", [1, 2, 3], [3, 2, 1], "-1.0"),
    ("test_against_oracle", [1, 2, 3, 4], [1, 2, 3, 5]),
    *((f"test_random_against_oracle-{draw}", a, b)
      for draw, a, b, _ in uniform_pairs(4, 30, (2, 30))),
    # c in [0.1, 3) and d in [-4, 4) are drawn after each pair
    *((f"test_range_and_affine_invariance-{draw}", a, b, None,
       (rng.uniform(0.1, 3), rng.uniform(-4, 4)))
      for draw, a, b, rng in uniform_pairs(5, 30, (3, 20))),
    # both sums of squares are about 1e-200, so their product underflows to 0
    ("test_tiny_scale_against_oracle", np.array([1, 2, 3, 4]) * 1e-100,
     np.array([1, 2, 3, 5]) * 1e-100),
    # the sums of squares underflow to 0 or overflow to inf at these scales
    *((f"test_extreme_scale_against_oracle-{scale}-{draw}", a, b) for scale in (1e-200, 1e200)
      for draw, a, b, _ in uniform_pairs(6, 30, (2, 30), scale)),
    # the float means of the constants 0.3, 0.7 and 1/3 are inexact, so their deviations are
    # not all 0
    *((f"test_zero_variance-{case}", a, b, "None") for case, a, b in [
        ("first", [1, 1, 1], [1, 2, 3]), ("second", [1, 2, 3], [4, 4, 4]),
        ("inexact-means", np.full(20, 0.3), np.full(20, 0.7)),
        ("inexact-first-mean", np.full(20, 0.3), np.arange(20.0)),
        ("inexact-second-mean", np.arange(20.0), np.full(20, 1 / 3))]),
    # not clamped to a perfect 1.0, which would beat every finite r in the matcher
    ("test_non_finite_input_is_nan-nan", [math.nan, 1, 2], [1, 2, 4], "nan"),
    ("test_non_finite_input_is_nan-inf", [1, 2, 4], [1, math.inf, 2], "nan"),
    ("test_one_point_is_undefined", [1.0], [2.0], "None"),
    # an input of equal values has no r, whatever its float mean rounds to
    *((f"test_all_values_equal_is_undefined-{draw}", constant, other, "None")
      for draw, constant, other in equal_draws(16, 1950)),
]


@pytest.mark.parametrize("a, b, shown, affine", [
    pytest.param(*row[1:], *[None] * (5 - len(row)), id=row[0]) for row in PEARSONS])
def test_pearson(a, b, shown, affine):
    """r of (b, a) is r of (a, b), bit for bit. r is None exactly on fewer than 2 points or an
    input of equal values, else nan exactly on a non-finite input, else pearson_oracle's r at
    1e-12. Then the row's repr of r; with (c, d),
    r of (a, +-c*b + d) is +-r and r of (b, +-c*b + d) is +-1 at 1e-12. Every r is in [-1, 1]."""
    x, y = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    r = pearson(a, b)
    assert repr(pearson(b, a)) == repr(r)
    if x.size < 2 or (x == x[0]).all() or (y == y[0]).all():
        assert r is None
    elif not np.isfinite([*x, *y]).all():
        assert math.isnan(r)
    else:
        assert -1.0 <= r <= 1.0 and abs(r - pearson_oracle(unit(x), unit(y))) <= 1e-12
    assert shown is None or repr(r) == shown
    if affine:
        c, d = affine
        for sign in (1, -1):
            for w, want in [(x, r), (y, 1.0)]:
                got = pearson(w, sign * c * y + d)
                assert -1.0 <= got <= 1.0 and abs(got - sign * want) <= 1e-12
