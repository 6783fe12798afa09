import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ngramcast import GeneratorSpec, SimilarityCriterion, TimeSeries, generate
from ngramcast.matching import _CHUNK, find_best_match
from ngramcast.series import (
    NoValidCandidate,
    detrend,
    fit_linear_trend,
    pearson,
    quantize,
)

DIFF = SimilarityCriterion.DIFFERENCE
CORR = SimilarityCriterion.CORRELATION


def window_keys(values, n, p, criterion, detrend_mode):
    """find_best_match's key of every admissible start, each window scored on its own with the
    public ops: its L1 score under DIFFERENCE, -r under CORRELATION, None if it is excluded.

    Under CORRELATION a window whose raw values are all equal or whose r is undefined is
    excluded, and a constant raw query excludes every window."""
    values = np.asarray(values, dtype=float)
    k = len(values)
    query = values[k - n :]

    def excluded(w):
        return criterion is CORR and (w == w[0]).all()

    if excluded(query):
        return [None] * (k - n - p + 1)
    keys = []
    with np.errstate(all="ignore"):  # a fit or an L1 sum of values near 1e308 overflows
        if detrend_mode:
            query = detrend(query, fit_linear_trend(query))
        for s in range(1, k - n - p + 2):
            cand = values[s - 1 : s - 1 + n]
            if excluded(cand):
                keys.append(None)
                continue
            if detrend_mode:
                cand = detrend(cand, fit_linear_trend(cand))
            if criterion is DIFF:
                keys.append(float(np.abs(query - cand).sum()))
            else:
                keys.append(None if (r := pearson(query, cand)) is None else -r)
    return keys


def brute_force_best(values, n, p, criterion, detrend_mode):
    """(start, score) of find_best_match's documented pick over window_keys, or None if every
    window is excluded: the least key that is not nan wins, ties go to the latest start, and if
    every valid key is nan the last valid start wins. The score is the key, r under CORRELATION."""
    best = None
    for s, key in enumerate(window_keys(values, n, p, criterion, detrend_mode), start=1):
        if key is not None and (best is None or math.isnan(best[1]) or key <= best[1]):
            best = (s, key)
    return best if best is None or criterion is DIFF else (best[0], -best[1])


def checked_pick(values, n, p, criterion, detrend_mode):
    """find_best_match's start, or None if it raises NoValidCandidate, once brute_force_best is
    seen to agree: the same start and the same bits of the score, or no valid window."""
    expected = brute_force_best(values, n, p, criterion, detrend_mode)
    if expected is None:
        with pytest.raises(NoValidCandidate):
            find_best_match(TimeSeries(values), n, p, criterion, detrend_mode)
        return None
    match = find_best_match(TimeSeries(values), n, p, criterion, detrend_mode)
    assert (match.start, np.float64(match.score).tobytes()) == (
        expected[0], np.float64(expected[1]).tobytes()), (criterion, detrend_mode, expected, match)
    return match.start


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
    """(mode, matcher start or None, exact best-score class) on quantized random series.

    400 short series, then 24 long ones on 2 to 4 levels, where exact ties are dense.
    """
    cases = []
    blocks = [(2024, 400, (12, 60), (2, 9), (3, 6)), (7, 24, (800, 1500), (2, 5), (3, 8))]
    for seed, count, k_range, levels_range, n_range in blocks:
        rng = np.random.default_rng(seed)
        for _ in range(count):
            k, levels = int(rng.integers(*k_range)), int(rng.integers(*levels_range))
            n, p = int(rng.integers(*n_range)), int(rng.integers(1, 4))
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
    assert len(exact_oracle_cases()) == 4 * (400 + 24)
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


SCAN_CASES = dict(
    chunks=st.sampled_from([(1, -1), (1, 0), (1, 1), (2, 37)]),
    n=st.sampled_from(range(3, 65)),  # uniform: hypothesis' integers favour the slow small n
    p=st.integers(1, 4), exponent=st.integers(-300, 300) | st.sampled_from([-300, 300]),
    offset=st.just(0.0) | st.floats(-1e12, 1e12), on_grid=st.booleans(),
    data_seed=st.integers(0, 2**32 - 1))


def scan_series(chunks, n, p, exponent, offset, on_grid, data_seed):
    """A random walk with chunks[0] chunks of candidates plus chunks[1]."""
    count = chunks[0] * (_CHUNK // n) + chunks[1]  # candidates: a chunk holds _CHUNK // n rows
    walk = np.cumsum(np.random.default_rng(data_seed).normal(size=count + n + p - 1))
    if on_grid:  # half steps: exact ties are common, as on a quantized series
        walk = np.round(2 * walk) / 2
    return TimeSeries(walk * 10.0**exponent + offset)


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(**SCAN_CASES)
def test_difference_scan_keeps_the_bits_of_a_window_loop(chunks, n, p, exponent, offset, on_grid,
                                                         data_seed):
    """Across chunk boundaries, the pick and the bits of its score are the per-window scan's."""
    series = scan_series(chunks, n, p, exponent, offset, on_grid, data_seed)
    for detrend_mode in (False, True):
        checked_pick(series.values, n, p, DIFF, detrend_mode)


@seed(20261021)
@settings(max_examples=100, deadline=None, database=None)
@given(**SCAN_CASES)
def test_correlation_scan_keeps_the_bits_of_a_window_loop(chunks, n, p, exponent, offset,
                                                          on_grid, data_seed):
    """Across chunk boundaries, the pick and the bits of its r are the per-window scan's."""
    series = scan_series(chunks, n, p, exponent, offset, on_grid, data_seed)
    for detrend_mode in (False, True):
        checked_pick(series.values, n, p, CORR, detrend_mode)


A = 5e307  # windows of +-A detrend to an L1 sum that overflows; the fit of [A, A, A] overflows


@pytest.mark.parametrize("values, classes, start", [
    ([1e308, -A, A, A, A, A, A, 0.0], "inf nan nan nan nan", 1),  # nan loses to inf
    ([A, 1e308, -A, A, A, A, A, 0.0], "nan inf nan nan nan", 2),
    ([-A, A, 0.0, A, -A, 1e308, -A, 0.0], "inf nan inf nan nan", 3),  # equal infs: the latest
    ([1e308, 0.0, -A, A, 1e308, -A, A, 0.0], "inf inf nan nan inf", 5),
    ([A] * 7 + [0.0], "nan nan nan nan nan", 5),  # every score nan: the last start
], ids=["inf-then-nan", "nan-then-inf", "inf-tie-then-nan", "inf-tie-last", "all-nan"])
def test_difference_nan_and_inf_rule(values, classes, start):
    """A nan score loses to every other, inf included; equal scores go to the latest start."""
    keys = window_keys(values, 3, 1, DIFF, detrend_mode=True)
    assert " ".join("nan" if math.isnan(v) else repr(v) for v in keys) == classes
    assert checked_pick(values, 3, 1, DIFF, detrend_mode=True) == start


@pytest.mark.parametrize("values, classes, start", [
    ([1e308, A, 1e308, A, A, A, 1.0, 2.0, 0.0], "nan nan nan None", 3),  # the last valid start
    ([1.0] * 6 + [1.0, 2.0, 0.0], "None None None None", None),
    ([0.0, 2.0, 1.0, 7.0, 0.0, 2.0, 1.0, 9.0, 9.0, 3.0, 0.0, 1.0],
     "-0.9999999999999999 1.0 -1.0 1.0 -0.9999999999999999 1.0 -0.9999999999999998", 6),
    ([1e308, A, 1e308, 0.0, 1.0, 0.0, 1.0, 2.0, 0.0], "nan nan -1.0 1.0", 4),
    ([0.0, 2.0, 1.0, 1e308, A, 1e308, 0.0, 2.0, 1.0, 5.0, 0.0, 2.0, 1.0],
     "1.0 nan nan nan nan -1.0 1.0 -1.0", 7),
], ids=["all-nan-then-flat", "all-flat", "equal-r-latest", "nan-then-r", "tie-across-nans"])
def test_correlation_nan_and_flat_rule(values, classes, start):
    """Under correlation a nan r loses to every other r, a window of equal raw values (None) is
    not valid, equal r go to the latest start, and every valid r nan picks the last valid one."""
    keys = window_keys(values, 3, 3, CORR, detrend_mode=True)
    assert " ".join("None" if v is None else repr(-v) for v in keys) == classes  # r, not -r
    assert checked_pick(values, 3, 3, CORR, detrend_mode=True) == start


SINE_THEN_THIRDS = np.concatenate([np.sin(np.arange(1, 61) / 4), np.full(20, 1 / 3)])


@pytest.mark.parametrize("values, n, p, criterion, detrend_mode, start", [
    ([A, 1e308, -A, A, A, A, A, 0.0], 3, 1, DIFF, True, 2),  # scores nan, inf, nan, nan, nan
    ([1 / 3] * 11 + [0.9], 10, 1, CORR, True, None),  # flat windows: detrended, r would be 0.0474
    (SINE_THEN_THIRDS, 10, 5, CORR, False, None),  # a constant query: r is undefined
    (SINE_THEN_THIRDS, 10, 5, CORR, True, None),  # detrended, it would be rounding noise
], ids=["nan-then-inf", "flat-windows", "constant-query-none", "constant-query-linear"])
def test_reference_keeps_the_documented_rules(values, n, p, criterion, detrend_mode, start):
    """The rules a reference most easily misses, kept by the matcher and brute_force_best alike:
    a nan score loses to inf, a window of equal raw values is excluded before it is detrended,
    and a constant raw query excludes every window, detrended or not."""
    assert checked_pick(values, n, p, criterion, detrend_mode) == start


@pytest.mark.parametrize("detrend_mode", [False, True], ids=["none", "linear"])
@pytest.mark.parametrize("criterion, k", [(DIFF, 10**6), (CORR, 10**5)],
                         ids=["difference", "correlation"])
def test_scan_memory_is_bounded(criterion, k, detrend_mode):
    """The scan holds its keys and one chunk, not a K-by-N window matrix.

    Unchunked, the window matrix alone would be N * K * 8 bytes = 160 MB at N = 20 and
    K = 10^6. Correlation scores a window at a time in Python, so it runs at K = 10^5.
    """
    series, _ = quantize(generate(GeneratorSpec(length=k, noise=0.15, seed=1)), 32)
    tracemalloc.start()
    try:
        find_best_match(series, 20, 20, criterion, detrend_mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * k * 8


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

    @pytest.mark.parametrize("detrend_mode", [False, True], ids=["none", "linear"])
    def test_constant_query_is_scored_under_difference(self, detrend_mode):
        # correlation refuses it (test_refusals.py); the constant windows match it
        assert find_best_match(TimeSeries(SINE_THEN_THIRDS), 10, 5, DIFF, detrend_mode).start == 66

    @pytest.mark.parametrize("detrend_mode", [False, True], ids=["none", "linear"])
    @pytest.mark.parametrize("tail", [0.9, -0.4])
    def test_constant_candidates_are_scored_under_difference(self, detrend_mode, tail):
        # correlation excludes both (test_refusals.py); they tie, and the later one wins
        vals = [1 / 3] * 11 + [tail]
        assert find_best_match(TimeSeries(vals), 10, 1, DIFF, detrend_mode).start == 2

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
            for crit in (DIFF, CORR):
                for dt in (False, True):
                    if dt and n < 3:
                        continue
                    checked_pick(vals, n, p, crit, dt)

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
