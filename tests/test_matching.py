import functools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ngramcast import GeneratorSpec, SimilarityCriterion, TimeSeries, generate, matching
from ngramcast.matching import find_best_match
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
    """find_best_match's WindowMatch, or None if it raises NoValidCandidate, once brute_force_best
    is seen to agree: the same start and the same bits of the score, or no valid window. The
    criterion is a member or its value."""
    expected = brute_force_best(values, n, p, SimilarityCriterion(criterion), detrend_mode)
    if expected is None:
        with pytest.raises(NoValidCandidate):
            find_best_match(TimeSeries(values), n, p, criterion, detrend_mode)
        return None
    match = find_best_match(TimeSeries(values), n, p, criterion, detrend_mode)
    assert (match.start, np.float64(match.score).tobytes()) == (
        expected[0], np.float64(expected[1]).tobytes()), (criterion, detrend_mode, expected, match)
    return match


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


SCAN_CASES = dict(
    rows=st.integers(3, 9),  # rows a chunk: 3 is the least that leaves (1, -1) two candidates
    chunks=st.sampled_from([(1, -1), (1, 0), (1, 1), (2, 37)]),
    n=st.sampled_from(range(3, 65)),  # uniform: hypothesis' integers favour the slow small n
    p=st.integers(1, 4), exponent=st.integers(-300, 300) | st.sampled_from([-300, 300]),
    offset=st.just(0.0) | st.floats(-1e12, 1e12), on_grid=st.booleans(), flat=st.booleans(),
    data_seed=st.integers(0, 2**32 - 1))


def scan_series(rows, chunks, n, p, exponent, offset, on_grid, flat, data_seed):
    """A random walk with chunks[0] chunks of rows candidates plus chunks[1]; if flat, the walk
    holds still for n values from a random start in every chunk."""
    count = chunks[0] * rows + chunks[1]
    rng = np.random.default_rng(data_seed)
    walk = np.cumsum(rng.normal(size=count + n + p - 1))
    if on_grid:  # half steps: exact ties are common, as on a quantized series
        walk = np.round(2 * walk) / 2
    if flat:  # windows of equal values: excluded under correlation, scored under difference
        for lo in range(0, count, rows):
            start = lo + int(rng.integers(min(rows, count - lo)))
            walk[start : start + n] = walk[start]
    return TimeSeries(walk * 10.0**exponent + offset)


@pytest.mark.parametrize("criterion", [DIFF, CORR], ids=[DIFF.value, CORR.value])
@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(**SCAN_CASES)
def test_scan_keeps_the_bits_of_a_window_loop(criterion, rows, chunks, n, p, exponent, offset,
                                              on_grid, flat, data_seed):
    """Across chunk boundaries, the pick and the bits of its score are the per-window scan's.

    The property does not depend on the chunk's size, so the scan runs in chunks of a few rows
    and crosses a boundary every few windows; test_k2000_scan_keeps_its_bits covers the real
    chunk."""
    series = scan_series(rows, chunks, n, p, exponent, offset, on_grid, flat, data_seed)
    with mock.patch.object(matching, "_CHUNK", rows * n):  # a chunk of rows windows
        for detrend_mode in (False, True):
            checked_pick(series.values, n, p, criterion, detrend_mode)


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



A = 5e307  # windows of +-A detrend to an L1 sum that overflows; the fit of [A, A, A] overflows
SINE_THEN_THIRDS = np.concatenate([np.sin(np.arange(1, 61) / 4), np.full(20, 1 / 3)])
PERIODIC = np.tile(np.sin(2 * np.pi * np.arange(1, 26) / 25), 4)  # repeats are bit-exact
RISE = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def uniform(seed, k):
    """K seeded uniform(0, 1) values."""
    return np.random.RandomState(seed).uniform(0, 1, size=k)


def with_query_at(values, start, n):
    """A copy of values whose window at 1-based start repeats the query (last n values)."""
    out = np.array(values, dtype=float)
    out[start - 1 : start - 1 + n] = out[-n:]
    return out


def random_windows():
    """25 draws of (draw, values, N, P): K in [20, 200) uniform(-3, 3) values, P in [1, 6)."""
    rng = np.random.RandomState(11)
    for draw in range(25):
        values = rng.uniform(-3, 3, size=rng.randint(20, 200))
        p = rng.randint(1, 6)
        yield draw, values, rng.randint(2, (values.size - p - 1) // 2), p


def affine_copies():
    """10 draws of (draw, values, c * values + d) with c in [0.2, 4) and d in [-10, 10)."""
    rng = np.random.RandomState(12)
    for draw in range(10):
        values = rng.uniform(-2, 2, size=80)
        yield draw, values, rng.uniform(0.2, 4) * values + rng.uniform(-10, 10)


def overflowing_head():
    """A noisy sine whose first 30 values are scaled past a trend fit's reach."""
    values = (np.sin(2 * np.pi * np.arange(1, 201) / 25)
              + np.random.RandomState(14).uniform(-0.15, 0.15, size=200))
    values[:30] *= 5e306
    return values


# (id, values, N, P, criterion, detrend_mode[, start[, score[, classes]]]): the pick's start, or
# None for NoValidCandidate; its score; and each window's score class from window_keys, None for
# an excluded window. A row that states nothing checks only agreement with brute_force_best.
PICKS = [
    # the window at start 1 is the best match
    ("test_identity_is_zero_difference", [1, 2, 3, 9, 1, 2, 3], 3, 1, DIFF, False, 1, 0.0),
    ("test_single_element_difference", [1, 2, 4, 20, 1, 2, 3], 3, 1, DIFF, False, 1, 1.0),
    ("test_correlation_shift_invariant", [5, 6, 5, 4, 10, 0, 1, 0, -1], 4, 1, CORR, False, 1,
     1.0),
    ("test_self_correlation_is_one", [1, 3, 2, 5, 0, 1, 3, 2, 5], 4, 1, CORR, False, 1, 1.0),
    # one residual shape [0.5, -0.5, 0.5, -0.5] on the lines 10 - 3x and 1 + 2x: detrended,
    # r is 1 and the difference is 0 but for rounding
    *((f"test_detrended_scoring-{crit.value}", [7.5, 3.5, 1.5, -2.5, 0.0, 3.5, 4.5, 7.5, 8.5], 4,
       1, crit, True, 1, score) for crit, score in [(DIFF, 1.7763568394002505e-15), (CORR, 1.0)]),
    ("test_constructed_unique_match", with_query_at(uniform(10, 30), 10, 5), 5, 1, DIFF, False,
     10, 0.0),
    # a mode named by its value runs that mode: correlation would pick 21 too, with r = 1.0
    ("difference-named-by-its-value", np.arange(30.0) % 7, 3, 2, "difference", False, 21, 0.0),
    # admissible starts are exactly 1..K-N-P+1: each wins when it alone repeats the query
    *((f"test_full_range-{s}", with_query_at(uniform(20, 100), s, 20), 20, 20, DIFF, False, s, 0.0)
      for s in range(1, 62)),
    *((f"test_boundary_candidates-{s}", with_query_at(uniform(21, 41), s, 20), 20, 20, DIFF,
       False, s, 0.0) for s in (1, 2)),
    # on a constant series every window ties at 0, so the last admissible start wins
    *((f"{name}-ones", np.ones(k), 20, 20, DIFF, False, k - 39, 0.0)
      for name, k in [("test_full_range", 100), ("test_boundary_candidates", 41)]),
    # the query's own window, at 81, would score 0
    ("test_query_never_a_candidate", uniform(22, 100), 20, 20, DIFF, False, 19, 4.626448054325614),
    # ties go to the latest start: the query [1..6] repeats at 10 and 30. The tiled sine repeats
    # the query at 6, 31 and 56 alone: each P ends the admissible starts before the next repeat
    ("test_tie_breaks_to_most_recent", np.concatenate([np.zeros(9), RISE, np.zeros(14), RISE,
     np.zeros(19), RISE]), 6, 1, DIFF, False, 30, 0.0),
    *((f"test_periodic_exact_repeat-P-{p}", PERIODIC, 20, p, DIFF, False, start, score)
      for p, start, score in [(20, 56, 0.0), (26, 31, 0.0), (51, 6, 0.0),
                              (76, 5, 3.041050397417932)]),
    # a nan score loses to every other, inf included; equal scores go to the latest start
    *((f"test_difference_nan_and_inf_rule-{case}", values, 3, 1, DIFF, True, start, score,
       classes) for case, values, start, score, classes in [
          ("inf-then-nan", [1e308, -A, A, A, A, A, A, 0.0], 1, math.inf, "inf nan nan nan nan"),
          ("nan-then-inf", [A, 1e308, -A, A, A, A, A, 0.0], 2, math.inf, "nan inf nan nan nan"),
          ("inf-tie-then-nan", [-A, A, 0.0, A, -A, 1e308, -A, 0.0], 3, math.inf,
           "inf nan inf nan nan"),
          ("inf-tie-last", [1e308, 0.0, -A, A, 1e308, -A, A, 0.0], 5, math.inf,
           "inf inf nan nan inf"),
          ("all-nan", [A] * 7 + [0.0], 5, math.nan, "nan nan nan nan nan")]),  # the last start
    # under correlation a nan r loses to every other r, a window of equal raw values (None) is
    # not valid, equal r go to the latest start, and every valid r nan picks the last valid one
    *((f"test_correlation_nan_and_flat_rule-{case}", values, 3, 3, CORR, True, start, score,
       classes) for case, values, start, score, classes in [
          ("all-nan-then-flat", [1e308, A, 1e308, A, A, A, 1.0, 2.0, 0.0], 3, math.nan,
           "nan nan nan None"),
          ("all-flat", [1.0] * 6 + [1.0, 2.0, 0.0], None, None, "None None None None"),
          ("equal-r-latest", [0.0, 2.0, 1.0, 7.0, 0.0, 2.0, 1.0, 9.0, 9.0, 3.0, 0.0, 1.0], 6, 1.0,
           "-0.9999999999999999 1.0 -1.0 1.0 -0.9999999999999999 1.0 -0.9999999999999998"),
          ("nan-then-r", [1e308, A, 1e308, 0.0, 1.0, 0.0, 1.0, 2.0, 0.0], 4, 1.0,
           "nan nan -1.0 1.0"),
          ("tie-across-nans", [0.0, 2.0, 1.0, 1e308, A, 1e308, 0.0, 2.0, 1.0, 5.0, 0.0, 2.0, 1.0],
           7, 1.0, "1.0 nan nan nan nan -1.0 1.0 -1.0")]),
    # the trend fits of the first 30 windows overflow to a nan score, which loses
    *((f"test_overflowing_candidate_loses-{crit.value}", overflowing_head(), 20, 10, crit, True,
       81, score) for crit, score in [(DIFF, 1.2754675321537887), (CORR, 0.9849715915761472)]),
    # the rules a reference most easily misses, with nan-then-inf above: a window of equal raw
    # values is excluded before it is detrended (r would be 0.0474), and a constant raw query
    # excludes every window, detrended or not (detrended, it would be rounding noise)
    ("test_reference_keeps_the_documented_rules-flat-windows", [1 / 3] * 11 + [0.9], 10, 1, CORR,
     True, None),
    *((f"test_reference_keeps_the_documented_rules-constant-query-{case}", SINE_THEN_THIRDS, 10,
       5, CORR, dt, None) for case, dt in [("none", False), ("linear", True)]),
    # difference scores what correlation refuses (tests/test_refusals.py): the constant windows
    # match a constant query, and two constant candidates tie, so the later one wins
    *((f"test_constant_query_is_scored_under_difference-{case}", SINE_THEN_THIRDS, 10, 5, DIFF,
       dt, 66) for case, dt in [("none", False), ("linear", True)]),
    *((f"test_constant_candidates_are_scored_under_difference-{tail}-{case}",
       [1 / 3] * 11 + [tail], 10, 1, DIFF, dt, 2)
      for tail in (0.9, -0.4) for case, dt in [("none", False), ("linear", True)]),
    # the argmax of r is the unscaled series' pick under a positive affine map
    *((f"test_correlation_argmax_affine_invariant-{draw}", scaled, 10, 5, CORR, False,
       brute_force_best(values, 10, 5, CORR, False)[0])
      for draw, values, scaled in affine_copies()),
    # agreement alone: brute_force_best scores every admissible start, and only those
    *((f"test_monotone_exclusion-{n}", uniform(13, 100), n, n, DIFF, False)
      for n in (5, 10, 20, 30)),
    *((f"test_brute_force_equivalence-{draw}-{crit.value}-{'linear' if dt else 'none'}", values,
       n, p, crit, dt) for draw, values, n, p in random_windows() for crit in (DIFF, CORR)
      for dt in (False, True) if n >= 3 or not dt),
]


@pytest.mark.parametrize("values, n, p, criterion, detrend_mode, expected", [
    pytest.param(*row[:5], tuple(row[5:]), id=name) for name, *row in PICKS])
def test_pick(values, n, p, criterion, detrend_mode, expected):
    """The matcher's pick agrees with brute_force_best, bit for bit, and is what the row states:
    compared by repr, so a score is compared by its bits, nan included."""
    match = checked_pick(values, n, p, criterion, detrend_mode)
    found = (None, None) if match is None else (match.start, match.score)
    if len(expected) == 3:  # r, not -r, under correlation
        found += (" ".join("None" if v is None else repr(v if criterion is DIFF else -v)
                           for v in window_keys(values, n, p, criterion, detrend_mode)),)
    assert list(map(repr, found[: len(expected)])) == list(map(repr, expected))
