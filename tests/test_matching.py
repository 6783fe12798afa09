import functools
from fractions import Fraction

import numpy as np
import pytest

from ngramcast import SimilarityCriterion, TimeSeries
from ngramcast.errors import NoValidCandidate, SeriesTooShort
from ngramcast.matching import find_best_match
from ngramcast.series import detrend, fit_linear_trend, pearson, quantize

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
        elif (score := pearson(q, c)) is not None:
            if best is None or score >= best[1]:
                best = (s, score)
    return best


def exact_scores(idx, n, p, criterion, detrend_mode):
    """Exact score of every admissible start on integer grid indices; None when undefined.

    A quantized value is min + step * index with step > 0. On indices the
    difference score is the value score divided by step (detrending commutes with
    that affine map) and the correlation is unchanged, so the order of the scores
    is the matcher's. Each window is scaled to integers by one positive factor
    that depends only on n: n for the deviations from the mean, n * sum(u * u)
    for the detrended residuals, with u = 2x - (n + 1) the doubled centred
    positions. Correlation is compared as the exact fraction signed r squared.
    """
    u = [2 * x - (n + 1) for x in range(1, n + 1)]
    uu = sum(a * a for a in u)

    def prepare(window):
        w = [int(v) for v in window]
        if detrend_mode:
            slope_num = sum(a * b for a, b in zip(u, w))  # slope = 2 * slope_num / uu
            return [n * uu * b - uu * sum(w) - n * slope_num * a for a, b in zip(u, w)]
        return w

    def deviations(w):
        return [n * b - sum(w) for b in w]

    k = len(idx)
    query = prepare(idx[k - n :])
    dq = deviations(query)
    ssq = sum(a * a for a in dq)
    scores = {}
    for s in range(1, k - n - p + 2):
        cand = prepare(idx[s - 1 : s - 1 + n])
        if criterion is DIFF:
            scores[s] = sum(abs(a - b) for a, b in zip(query, cand))
            continue
        dc = deviations(cand)
        num, ssc = sum(a * b for a, b in zip(dq, dc)), sum(b * b for b in dc)
        scores[s] = None if ssq == 0 or ssc == 0 else Fraction(num * abs(num), ssq * ssc)
    return scores


@functools.cache
def exact_oracle_cases():
    """(mode, matcher start or None, exact best-score class) on quantized random series."""
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(400):
        k, levels = int(rng.integers(12, 60)), int(rng.integers(2, 9))
        n, p = int(rng.integers(3, 6)), int(rng.integers(1, 4))
        quantized, grid = quantize(TimeSeries(rng.uniform(-1, 1, k)), levels)
        idx = np.rint((quantized.values - grid.min) / grid.step).astype(int)
        for crit in (DIFF, CORR):
            for dt in (False, True):
                scores = exact_scores(idx, n, p, crit, dt)
                valid = {s: v for s, v in scores.items() if v is not None}
                best = (min if crit is DIFF else max)(valid.values(), default=None)
                ties = [s for s, v in valid.items() if v == best]
                try:
                    start = find_best_match(quantized, n, p, crit, dt).start
                except NoValidCandidate:
                    start = None
                cases.append((f"{crit.value}-{'linear' if dt else 'none'}", start, ties))
    return cases


def test_pick_has_exact_best_score():
    """On quantized series the matcher never picks a window that is exactly worse."""
    for mode, start, ties in exact_oracle_cases():
        if ties:
            assert start in ties, (mode, start, ties)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: scores of exactly tied windows differ in the last ulps, so the "
    "tie-break follows rounding noise, not recency, and exactly degenerate correlation "
    "windows can get a score"))
def test_pick_is_most_recent_exact_tie():
    """Ties go to the most recent window; no exactly valid candidate means NoValidCandidate."""
    for mode, start, ties in exact_oracle_cases():
        assert start == (max(ties) if ties else None), (mode, start, ties)


def with_query_at(values, start, n):
    """A copy of values whose window at 1-based start repeats the query (last n values)."""
    out = np.array(values, dtype=float)
    out[start - 1 : start - 1 + n] = out[-n:]
    return TimeSeries(out)


class TestCandidateStarts:
    """Admissible starts are exactly 1..K-N-P+1, seen through the matcher's pick."""

    def test_full_range(self):
        # every start 1..61 is reachable: it wins when it is the only exact repeat
        base = np.random.RandomState(20).uniform(0, 1, size=100)
        picks = [find_best_match(with_query_at(base, s, 20), 20, 20, DIFF) for s in range(1, 62)]
        assert [m.start for m in picks] == list(range(1, 62))
        assert all(m.score == 0.0 for m in picks)
        # nothing beyond 61: on a constant series every window ties at 0, so the
        # most recent admissible start wins
        assert find_best_match(TimeSeries(np.ones(100)), 20, 20, DIFF).start == 61

    def test_boundary_candidates(self):
        # K = 41, N = P = 20: starts 1 and 2 are reachable, 3 (= K-N-P+2) never is
        base = np.random.RandomState(21).uniform(0, 1, size=41)
        assert find_best_match(with_query_at(base, 1, 20), 20, 20, DIFF).start == 1
        assert find_best_match(with_query_at(base, 2, 20), 20, 20, DIFF).start == 2
        # on a constant series every window ties, so the most recent admissible start wins
        assert find_best_match(TimeSeries(np.ones(41)), 20, 20, DIFF).start == 2

    def test_too_short(self):
        with pytest.raises(SeriesTooShort) as exc:
            find_best_match(TimeSeries(np.arange(40.0)), 20, 20, DIFF)
        assert exc.value.minimum == 41

    @pytest.mark.parametrize("window, horizon, message", [
        (1, 1, r"^window must be >= 2, got 1$"),
        (2, 0, r"^horizon must be >= 1, got 0$"),
    ], ids=["window", "horizon"])
    def test_window_and_horizon_are_checked(self, window, horizon, message):
        with pytest.raises(ValueError, match=message):
            find_best_match(TimeSeries(np.arange(40.0)), window, horizon, DIFF)

    def test_query_never_a_candidate(self):
        # the query's own window would score exactly 0 and win; no admissible window does
        vals = np.random.RandomState(22).uniform(0, 1, size=100)
        match = find_best_match(TimeSeries(vals), 20, 20, DIFF)
        assert match.start != 100 - 20 + 1
        assert match.score > 0.0


class TestScoring:
    """Scores of one candidate/query pair: the candidate at start 1 is the best match."""

    def test_identity_is_zero_difference(self):
        match = find_best_match(TimeSeries([1, 2, 3, 9, 1, 2, 3]), 3, 1, DIFF)
        assert (match.start, match.score) == (1, 0.0)

    def test_single_element_difference(self):
        # candidate [1, 2, 4] against the query [1, 2, 3]
        match = find_best_match(TimeSeries([1, 2, 4, 20, 1, 2, 3]), 3, 1, DIFF)
        assert (match.start, match.score) == (1, 1.0)

    def test_correlation_shift_invariant(self):
        # candidate [5, 6, 5, 4] against the query [0, 1, 0, -1]
        match = find_best_match(TimeSeries([5, 6, 5, 4, 10, 0, 1, 0, -1]), 4, 1, CORR)
        assert match.start == 1
        assert match.score == pytest.approx(1.0)

    def test_self_correlation_is_one(self):
        match = find_best_match(TimeSeries([1, 3, 2, 5, 0, 1, 3, 2, 5]), 4, 1, CORR)
        assert match.start == 1
        assert match.score == pytest.approx(1.0)

    def test_detrended_scoring(self):
        # Same residual shape on different lines scores 0 / 1 after detrending:
        # the candidate b at start 1 against the query a.
        resid = np.array([0.5, -0.5, 0.5, -0.5])
        a = resid + 2 * np.arange(1, 5) + 1
        b = resid - 3 * np.arange(1, 5) + 10
        series = TimeSeries(np.concatenate([b, [0.0], a]))
        diff = find_best_match(series, 4, 1, DIFF, detrend_mode=True)
        corr = find_best_match(series, 4, 1, CORR, detrend_mode=True)
        assert diff.start == corr.start == 1
        assert diff.score == pytest.approx(0.0, abs=1e-9)
        assert corr.score == pytest.approx(1.0, abs=1e-9)

    def test_detrended_line_has_no_correlation(self):
        # the query [1, 2, 3, 4] and the candidate [2, 4, 6, 8] are lines: no correlation
        with pytest.raises(NoValidCandidate):
            find_best_match(TimeSeries([2, 4, 6, 8, 0, 1, 2, 3, 4]), 4, 1, CORR, detrend_mode=True)
        # line candidates are excluded too when the query is not a line: both
        # candidates, [2, 4, 6, 8] and [4, 6, 8, 10], against the query [6, 8, 10, 3]
        with pytest.raises(NoValidCandidate):
            find_best_match(TimeSeries([2, 4, 6, 8, 10, 3]), 4, 1, CORR, detrend_mode=True)


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
            for s in range(1, 62)
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

    @pytest.mark.parametrize("criterion", [DIFF, CORR], ids=["difference", "correlation"])
    def test_overflowing_candidate_loses(self, criterion):
        # the trend fits of the first 30 windows overflow to a nan score, which must not win
        rng = np.random.RandomState(14)
        vals = np.sin(2 * np.pi * np.arange(1, 201) / 25) + rng.uniform(-0.15, 0.15, size=200)
        vals[:30] *= 5e306
        match = find_best_match(TimeSeries(vals), 20, 10, criterion, detrend_mode=True)
        assert match.start > 30
        assert np.isfinite(match.score)

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
