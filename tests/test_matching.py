import numpy as np
import pytest

from ngramcast import SimilarityCriterion, TimeSeries
from ngramcast.errors import NoValidCandidate, SeriesTooShort, UndefinedCorrelation
from ngramcast.matching import enumerate_candidates, find_best_match, score_window
from ngramcast.series import detrend, fit_linear_trend, pearson

DIFF = SimilarityCriterion.DIFFERENCE
CORR = SimilarityCriterion.CORRELATION


def brute_force_best(values, n, p, criterion, detrend_mode):
    """Independent exhaustive re-scoring, sharing only the public scoring ops."""
    k = len(values)
    query = np.asarray(values[k - n :], dtype=float)
    best = None
    for s in range(1, k - n - p + 2):
        cand = np.asarray(values[s - 1 : s - 1 + n], dtype=float)
        q, c = query, cand
        if detrend_mode:
            q = detrend(q, fit_linear_trend(q))
            c = detrend(c, fit_linear_trend(c))
        if criterion is DIFF:
            score = float(np.abs(q - c).sum())
            if best is None or score <= best[1]:
                best = (s, score)
        else:
            try:
                score = pearson(q, c)
            except UndefinedCorrelation:
                continue
            if best is None or score >= best[1]:
                best = (s, score)
    return best


class TestEnumerateCandidates:
    def test_full_range(self):
        assert list(enumerate_candidates(100, 20, 20)) == list(range(1, 62))

    def test_boundary_candidates(self):
        assert list(enumerate_candidates(41, 20, 20)) == [1, 2]

    def test_too_short(self):
        with pytest.raises(SeriesTooShort) as exc:
            enumerate_candidates(40, 20, 20)
        assert exc.value.minimum == 41

    def test_query_never_a_candidate(self):
        starts = enumerate_candidates(100, 20, 20)
        assert (100 - 20 + 1) not in starts


class TestScoreWindow:
    def test_identity_is_zero_difference(self):
        assert score_window([1, 2, 3], [1, 2, 3], DIFF) == 0.0

    def test_single_element_difference(self):
        assert score_window([1, 2, 3], [1, 2, 4], DIFF) == 1.0

    def test_correlation_shift_invariant(self):
        assert score_window([0, 1, 0, -1], [5, 6, 5, 4], CORR) == pytest.approx(1.0)

    def test_self_correlation_is_one(self):
        assert score_window([1, 3, 2, 5], [1, 3, 2, 5], CORR) == pytest.approx(1.0)

    def test_detrended_scoring(self):
        # Same residual shape on different lines scores 0 / 1 after detrending.
        resid = np.array([0.5, -0.5, 0.5, -0.5])
        a = resid + 2 * np.arange(1, 5) + 1
        b = resid - 3 * np.arange(1, 5) + 10
        assert score_window(a, b, DIFF, detrend_mode=True) == pytest.approx(0.0, abs=1e-9)
        assert score_window(a, b, CORR, detrend_mode=True) == pytest.approx(1.0, abs=1e-9)

    def test_detrended_line_has_no_correlation(self):
        with pytest.raises(UndefinedCorrelation):
            score_window([1, 2, 3, 4], [2, 4, 6, 8], CORR, detrend_mode=True)


class TestFindBestMatch:
    def test_periodic_exact_repeat(self):
        # one period of samples tiled so repeats are bit-exact
        # (fp sin(k) is not exactly periodic across periods)
        pattern = np.sin(2 * np.pi * np.arange(1, 26) / 25)
        series = TimeSeries(np.tile(pattern, 4))
        match = find_best_match(series, 20, 20, DIFF)
        assert match.start == 56
        assert match.score == pytest.approx(0.0, abs=1e-12)
        # brute-force confirms the zero score is unique among admissible starts
        # except the in-phase repeats at 6, 31, 56
        zero_starts = [
            s
            for s in enumerate_candidates(100, 20, 20)
            if np.abs(series.values[s - 1 : s + 19] - series.values[80:]).sum() < 1e-9
        ]
        assert zero_starts == [6, 31, 56]

    def test_constructed_unique_match(self):
        rng = np.random.RandomState(10)
        vals = rng.uniform(0, 1, size=30)
        vals[9:14] = vals[25:30]  # positions 10..14 repeat the last 5 values
        series = TimeSeries(vals)
        match = find_best_match(series, 5, 1, DIFF)
        assert match.start == 10
        assert match.score == 0.0

    def test_tie_breaks_to_most_recent(self):
        vals = np.zeros(60)
        vals[54:] = [1, 2, 3, 4, 5, 6]
        vals[9:15] = vals[54:]
        vals[29:35] = vals[54:]
        series = TimeSeries(vals)
        match = find_best_match(series, 6, 1, DIFF)
        assert match.start == 30

    def test_no_valid_candidate_under_correlation(self):
        vals = np.ones(30)
        vals[-3:] = [1, 2, 3]
        series = TimeSeries(vals)
        with pytest.raises(NoValidCandidate):
            find_best_match(series, 3, 2, CORR)

    def test_brute_force_equivalence(self):
        rng = np.random.RandomState(11)
        for _ in range(25):
            k = rng.randint(20, 200)
            vals = rng.uniform(-3, 3, size=k)
            p = rng.randint(1, 6)
            n = rng.randint(2, max(3, (k - p - 1) // 2))
            if k < n + p + 1:
                continue
            series = TimeSeries(vals)
            for crit in (DIFF, CORR):
                for dt in (False, True):
                    if dt and n < 3:
                        continue
                    match = find_best_match(series, n, p, crit, dt)
                    bstart, bscore = brute_force_best(vals, n, p, crit, dt)
                    assert match.start == bstart
                    assert match.score == pytest.approx(bscore, abs=1e-12)

    def test_correlation_argmax_affine_invariant(self):
        rng = np.random.RandomState(12)
        for _ in range(10):
            vals = rng.uniform(-2, 2, size=80)
            series = TimeSeries(vals)
            base = find_best_match(series, 10, 5, CORR)
            c, d = rng.uniform(0.2, 4), rng.uniform(-10, 10)
            scaled = TimeSeries(c * vals + d)
            assert find_best_match(scaled, 10, 5, CORR).start == base.start

    def test_monotone_exclusion(self):
        rng = np.random.RandomState(13)
        vals = rng.uniform(0, 1, size=100)
        series = TimeSeries(vals)
        for n, p in [(5, 5), (10, 10), (20, 20), (30, 30)]:
            match = find_best_match(series, n, p, DIFF)
            assert 1 <= match.start <= 100 - n - p + 1
