import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ngramcast.series import (
    LinearTrend,
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


class TestQuantize:
    def test_values_already_on_grid_unchanged(self):
        q, grid = quantize(TimeSeries(np.array([0.0, 1, 2, 3, 4])), 4)
        assert grid.step == 1.0
        assert list(q.values) == [0, 1, 2, 3, 4]

    def test_paper_step_example(self):
        # range 4 split into 32 levels gives step 0.125
        q, grid = quantize(TimeSeries(np.linspace(0, 4, 9)), 32)
        assert grid.step == 0.125

    def test_nearest_level_rounding(self):
        q, grid = quantize(TimeSeries(np.array([0.0, 1.30, 1.20, 4.0])), 8)
        assert grid.step == 0.5
        # brute-force nearest-point scan as the oracle, ties to the higher point
        points = grid.min + grid.step * np.arange(grid.levels + 1)
        for orig, snapped in zip([0.0, 1.30, 1.20, 4.0], q.values):
            dist = np.abs(points - orig)
            best = points[dist == dist.min()].max()
            assert snapped == best
        assert q.values[1] == 1.5
        assert q.values[2] == 1.0

    def test_midpoint_ties_round_up(self):
        q, grid = quantize(TimeSeries(np.array([0.0, 0.25, 1.0])), 2)
        assert q.values[1] == 0.5

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 6: the float step 727.2 is inexact, so (v - min) / step gives "
        "7.499999999999999 for this exact midpoint, and it goes down to level 7"))
    def test_exact_midpoint_goes_up(self):
        # 5151.5 is exactly 7.5 steps of 7272 / 10 above -302.5
        q, grid = quantize(TimeSeries(np.array([-302.5, 6969.5, 5151.5])), 10)
        assert q.values[2] == grid.min + 8 * grid.step

    def test_endpoints_map_to_themselves(self):
        rng = np.random.RandomState(0)
        for _ in range(20):
            vals = rng.uniform(-10, 10, size=30)
            q, grid = quantize(TimeSeries(vals), 7)
            assert q.values[np.argmin(vals)] == vals.min()
            assert q.values[np.argmax(vals)] == vals.max()

    def test_error_bound_and_idempotence(self):
        rng = np.random.RandomState(1)
        for trial in range(50):
            vals = rng.uniform(-5, 5, size=60)
            s = rng.randint(1, 40)
            q, grid = quantize(TimeSeries(vals), s)
            assert np.all(np.abs(q.values - vals) <= grid.step / 2 + 1e-12)
            q2, _ = quantize(q, s)
            assert np.allclose(q2.values, q.values, atol=1e-12, rtol=0)

    def test_levels_up_to_2_to_the_63(self):
        assert quantize(TimeSeries(np.array([1.0, 2.0])), 2**63 - 1)[1].levels == 2**63 - 1


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


class TestLinearTrend:
    def test_exact_line(self):
        t = fit_linear_trend([3, 5, 7])
        assert t.slope == pytest.approx(2.0, abs=1e-12)
        assert t.intercept == pytest.approx(1.0, abs=1e-12)

    def test_constant_window(self):
        t = fit_linear_trend([1, 1, 1, 1])
        assert t.slope == pytest.approx(0.0, abs=1e-12)
        assert t.intercept == pytest.approx(1.0, abs=1e-12)

    def test_normal_equations_hand_solution(self):
        # [1,2,2,3] at x=1..4: mean(xy)=23/4, mean(x)=5/2, mean(y)=2,
        # mean(x^2)=15/2 -> B=(23/4-5)/(15/2-25/4)=0.6, A=2-0.6*2.5=0.5
        t = fit_linear_trend([1, 2, 2, 3])
        assert t.slope == pytest.approx(0.6, abs=1e-12)
        assert t.intercept == pytest.approx(0.5, abs=1e-12)

    def test_optimality_under_perturbation(self):
        rng = np.random.RandomState(2)
        for _ in range(30):
            w = rng.uniform(-5, 5, size=rng.randint(2, 20))
            t = fit_linear_trend(w)
            x = np.arange(1, len(w) + 1)
            rss = ((w - (t.slope * x + t.intercept)) ** 2).sum()
            eps = 1e-3 * (abs(t.slope) + abs(t.intercept) + 1)
            for db, da in [(eps, 0), (-eps, 0), (0, eps), (0, -eps)]:
                rss_p = ((w - ((t.slope + db) * x + t.intercept + da)) ** 2).sum()
                assert rss_p >= rss - 1e-15

    def test_detrend_examples(self):
        assert np.allclose(detrend([3, 5, 7], LinearTrend(2, 1)), [0, 0, 0])
        assert np.allclose(detrend([1, 1, 1, 1], LinearTrend(0, 1)), [0, 0, 0, 0])
        out = detrend([1, 2, 2, 3], LinearTrend(0.6, 0.5))
        assert np.allclose(out, [-0.1, 0.3, -0.3, 0.1])
        assert out.sum() == pytest.approx(0.0, abs=1e-12)

    def test_detrend_then_fit_slope_near_zero(self):
        rng = np.random.RandomState(3)
        for _ in range(30):
            w = rng.uniform(-10, 10, size=rng.randint(2, 25))
            resid = detrend(w, fit_linear_trend(w))
            t2 = fit_linear_trend(resid)
            bound = 1e-9 * (w.max() - w.min() + 1)
            assert abs(t2.slope) <= bound
            assert abs(t2.intercept) <= bound

    def test_extrapolate(self):
        assert np.allclose(LinearTrend(2, 1).at([4, 5]), [9, 11])
        assert np.allclose(LinearTrend(0, 5).at([1, 2, 3]), [5, 5, 5])
        assert np.allclose(LinearTrend(0.6, 0.5).at([5, 6, 7]), [3.5, 4.1, 4.7])

    def test_extrapolate_continues_fit(self):
        t = fit_linear_trend([3, 5, 7])
        assert np.allclose(t.at([4, 5]), [9, 11])


class TestPearson:
    def test_exact_linear_relations(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0
        assert pearson([1, 2, 3], [3, 2, 1]) == -1.0

    def test_against_oracle(self):
        expected = pearson_oracle([1, 2, 3, 4], [1, 2, 3, 5])
        assert pearson([1, 2, 3, 4], [1, 2, 3, 5]) == pytest.approx(expected, abs=1e-12)

    def test_random_against_oracle(self):
        rng = np.random.RandomState(4)
        for _ in range(30):
            n = rng.randint(2, 30)
            a = rng.uniform(-5, 5, size=n)
            b = rng.uniform(-5, 5, size=n)
            assert pearson(a, b) == pytest.approx(pearson_oracle(a, b), abs=1e-9)

    def test_range_and_affine_invariance(self):
        rng = np.random.RandomState(5)
        for _ in range(30):
            n = rng.randint(3, 20)
            a = rng.uniform(-5, 5, size=n)
            b = rng.uniform(-5, 5, size=n)
            r = pearson(a, b)
            assert -1.0 <= r <= 1.0
            c, d = rng.uniform(0.1, 3), rng.uniform(-4, 4)
            assert pearson(a, c * b + d) == pytest.approx(r, abs=1e-9)
            assert pearson(a, -c * b + d) == pytest.approx(-r, abs=1e-9)

    def test_tiny_scale_against_oracle(self):
        # both sums of squares are about 1e-200, so their product underflows to 0
        a, b = [1, 2, 3, 4], [1, 2, 3, 5]
        expected = pearson_oracle(a, b)
        assert pearson(np.array(a) * 1e-100, np.array(b) * 1e-100) == pytest.approx(
            expected, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scale_against_oracle(self, scale):
        # the sums of squares underflow to 0 or overflow to inf at these scales
        rng = np.random.RandomState(6)
        for _ in range(30):
            n = rng.randint(2, 30)
            a = rng.uniform(-5, 5, size=n) * scale
            b = rng.uniform(-5, 5, size=n) * scale
            # the oracle sees the same floats, divided by the scale exactly
            expected = pearson_oracle(*([Fraction(v) / Fraction(scale) for v in w] for w in (a, b)))
            assert pearson(a, b) == pytest.approx(expected, abs=1e-12)

    def test_zero_variance(self):
        assert pearson([1, 1, 1], [1, 2, 3]) is None
        assert pearson([1, 2, 3], [4, 4, 4]) is None
        # the float means of these constants are inexact, so their deviations are not all 0
        assert pearson(np.full(20, 0.3), np.full(20, 0.7)) is None
        assert pearson(np.full(20, 0.3), np.arange(20.0)) is None
        assert pearson(np.arange(20.0), np.full(20, 1 / 3)) is None

    def test_all_values_equal_is_undefined(self):
        # None exactly when an input's values are all equal, whatever its float mean rounds to
        rng = np.random.default_rng(16)
        for _ in range(1950):
            n = int(rng.integers(2, 41))
            constant = np.full(n, rng.uniform(-1, 1) * 10.0 ** int(rng.integers(-300, 301)))
            other = rng.uniform(-1, 1, n)
            assert pearson(constant, other) is None
            assert pearson(other, constant) is None

    def test_non_finite_input_is_nan(self):
        # not clamped to a perfect 1.0, which would beat every finite r in the matcher
        assert math.isnan(pearson([math.nan, 1, 2], [1, 2, 4]))
        assert math.isnan(pearson([1, 2, 4], [1, math.inf, 2]))

    def test_one_point_is_undefined(self):
        assert pearson([1.0], [2.0]) is None
