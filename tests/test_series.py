import math
from fractions import Fraction

import numpy as np
import pytest

from ngramcast.errors import NgramcastError
from ngramcast.series import (
    LinearTrend,
    TimeSeries,
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
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([]))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, np.inf]))

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

    def test_degenerate_range(self):
        with pytest.raises(NgramcastError, match=r"^constant series: quantization grid is undefined$"):
            quantize(TimeSeries(np.array([3.0, 3.0, 3.0])), 4)

    def test_invalid_levels(self):
        with pytest.raises(ValueError, match=r"^levels must be >= 1, got 0$"):
            quantize(TimeSeries(np.array([1.0, 2.0])), 0)

    def test_step_underflow(self):
        # a subnormal range split into 1012 levels has a step of 0 in float64
        with pytest.raises(NgramcastError, match=(
            r"^value range \[0\.0, 2\.5e-321\] is too narrow for 1012 levels:"
            r" the grid step underflows float64$"
        )):
            quantize(TimeSeries(np.array([0.0, 2.5e-321])), 1012)


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

    def test_insufficient_points(self):
        with pytest.raises(ValueError, match=r"^need at least 2 points to fit a trend, got 1$"):
            fit_linear_trend([1.0])

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

    def test_non_finite_input_is_nan(self):
        # not clamped to a perfect 1.0, which would beat every finite r in the matcher
        assert math.isnan(pearson([math.nan, 1, 2], [1, 2, 4]))
        assert math.isnan(pearson([1, 2, 4], [1, math.inf, 2]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_one_point_is_undefined(self):
        assert pearson([1.0], [2.0]) is None
