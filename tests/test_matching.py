import contextlib
import functools
import itertools
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


def window_key(values, n, criterion, detrend_mode):
    """The function of a 1-based start that gives find_best_match's key of that window, scored
    on its own with the public ops: its L1 score under DIFFERENCE, -r under CORRELATION, None if
    it is excluded.

    Under CORRELATION a window whose raw values are all equal or whose r is undefined is
    excluded, and a constant raw query excludes every window."""
    values = np.asarray(values, dtype=float)
    raw_query = values[len(values) - n :]

    def excluded(w):
        return criterion is CORR and (w == w[0]).all()

    @np.errstate(all="ignore")  # a fit or an L1 sum of values near 1e308 overflows
    def prepared(w):
        return detrend(w, fit_linear_trend(w)) if detrend_mode else w

    @np.errstate(all="ignore")
    def key(start):
        cand = values[start - 1 : start - 1 + n]
        if excluded(raw_query) or excluded(cand):
            return None
        if criterion is DIFF:
            return float(np.abs(query - prepared(cand)).sum())
        return None if (r := pearson(query, prepared(cand))) is None else -r

    query = prepared(raw_query)
    return key


def window_keys(values, n, p, criterion, detrend_mode):
    """window_key of every admissible start."""
    key = window_key(values, n, criterion, detrend_mode)
    return [key(s) for s in range(1, len(values) - n - p + 2)]


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
            slope_num, total = sum(a * b for a, b in zip(u, w)), sum(w)  # slope = 2 slope_num / uu
            return [n * uu * b - uu * total - n * slope_num * a for a, b in zip(u, w)]
        return w

    def deviations(w):
        total = sum(w)
        return [n * b - total for b in w]

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


MODES = [(crit, dt) for crit in (DIFF, CORR) for dt in (False, True)]
MODE_IDS = [f"{crit.value}-{'linear' if dt else 'none'}" for crit, dt in MODES]
# ROADMAP item 2's exact kernel on grid indices closes each row and parameter that carries it
ITEM_2 = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: float keys of exactly tied windows differ in the last ulps, so the "
    "tie-break follows rounding, not recency, and a window that is an exact line in grid "
    "indices detrends to rounding noise, which the correlation criterion scores"))


@functools.cache
def sampled_series():
    """(series, grid indices, N, P) of quantized random series: 400 short series, then 24 long
    ones on 2 to 4 levels, where exact ties are dense."""
    cases = []
    blocks = [(2024, 400, (12, 60), (2, 9), (3, 6)), (7, 24, (800, 1500), (2, 5), (3, 8))]
    for seed, count, k_range, levels_range, n_range in blocks:
        rng = np.random.default_rng(seed)
        for _ in range(count):
            k, levels = int(rng.integers(*k_range)), int(rng.integers(*levels_range))
            n, p = int(rng.integers(*n_range)), int(rng.integers(1, 4))
            quantized, grid = quantize(TimeSeries(rng.uniform(-1, 1, k)), levels)
            idx = np.rint((quantized.values - grid.min) / grid.step).astype(int)
            cases.append((quantized, idx, n, p))
    return cases


@functools.cache
def exhaustive_series():
    """(series, grid indices, N, P) of every non-constant series of K = 8 on 3 levels, with
    values 0.7 + 0.1 * index (an affine map with rounding), at N = 3-4 and P = 1-2."""
    grids = [idx for idx in itertools.product(range(3), repeat=8) if len(set(idx)) > 1]
    return [(TimeSeries(0.7 + 0.1 * np.array(idx)), idx, n, p)
            for idx in grids for n in (3, 4) for p in (1, 2)]


CASE_SETS = {"sampled": sampled_series, "exhaustive": exhaustive_series}


@functools.cache
def exact_cases(case_set, criterion, detrend_mode):
    """(series, N, the matcher's start and score, both None for NoValidCandidate, exact
    best-score class) of every case of the set in one mode."""
    cases, memo = [], {}  # the scores at P = 1 hold every P's, whose starts run 1..K-N-P+1
    for series, idx, n, p in CASE_SETS[case_set]():
        if (key := (tuple(idx), n)) not in memo:
            memo[key] = exact_scores(idx, n, 1, criterion, detrend_mode)
        valid = {s: v for s, v in memo[key].items() if v is not None and s <= len(idx) - n - p + 1}
        best = (min if criterion is DIFF else max)(valid.values(), default=None)
        try:
            match = find_best_match(series, n, p, criterion, detrend_mode)
            pick = (match.start, match.score)
        except NoValidCandidate:
            pick = (None, None)
        cases.append((series, n, *pick, [s for s, v in valid.items() if v == best]))
    return cases


def own_score(values, n, criterion, detrend_mode, start):
    """The score of the window at start, scored on its own by window_key: r under CORRELATION."""
    key = window_key(values, n, criterion, detrend_mode)(start)
    return key if key is None or criterion is DIFF else -key


# the matcher's contract on quantized series, each rule a check of (start, score, exact best
# class, own_score of a start): the pick is in the exact best class; it is the class's latest
# start, or NoValidCandidate when no window is exactly valid; and its score has the bits of its
# window's own score, the scalar score that ROADMAP item 2 reports for the kernel's pick
RULES = {"best-class": lambda start, score, ties, own: not ties or start in ties,
         "latest-of-class": lambda start, score, ties, own: start == max(ties, default=None),
         "reported-score": lambda start, score, ties, own: (
             start is None or repr(score) == repr(own(start)))}
# (case set, rule, mode) where today's float scan breaks the rule: every sampled mode misses
# recency (22, 86, 12 and 38 of 424 cases), and of the 26,232 exhaustive cases a mode, 72
# correlation-linear picks are exact lines and 2,543, 1,283 and 2,166 picks miss recency
BROKEN = {*(("sampled", "latest-of-class", mode) for mode in MODE_IDS),
          ("exhaustive", "best-class", "correlation-linear"),
          *(("exhaustive", "latest-of-class", mode) for mode in MODE_IDS[1:])}


@pytest.mark.parametrize("case_set, rule, criterion, detrend_mode", [
    pytest.param(case_set, rule, *mode, id=f"{case_set}-{rule}-{mode_id}",
                 marks=[ITEM_2] * ((case_set, rule, mode_id) in BROKEN))
    for case_set in CASE_SETS for rule in RULES
    if (case_set, rule) != ("exhaustive", "reported-score")
    for mode, mode_id in zip(MODES, MODE_IDS)])
def test_pick_keeps_the_exact_contract(case_set, rule, criterion, detrend_mode):
    """Checked against exact_scores on every case of a set: the sampled one, 424 quantized
    random series, and the exhaustive one, 26,232 cases a mode. The reported score is checked
    on the sampled set alone: on the exhaustive one it would cost about 6 s of tier-1."""
    cases = exact_cases(case_set, criterion, detrend_mode)
    assert len(cases) == {"sampled": 400 + 24, "exhaustive": (3**8 - 3) * 2 * 2}[case_set]
    wrong = [(start, score, ties) for series, n, start, score, ties in cases
             if not RULES[rule](start, score, ties, functools.partial(
                 own_score, series.values, n, criterion, detrend_mode))]
    assert wrong == [], f"{len(wrong)} wrong picks, first {wrong[0]}"


SCAN_CASES = dict(
    rows=st.integers(3, 9),  # rows a chunk: 3 is the least that leaves (1, -1) two candidates
    chunks=st.sampled_from([(1, -1), (1, 0), (1, 1), (2, 37)]),
    n=st.sampled_from(range(2, 100)),  # uniform: hypothesis' integers favour the slow small n
    p=st.integers(1, 5), exponent=st.integers(-300, 300) | st.sampled_from([-300, 300]),
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
    chunk. It is the one check that the matcher agrees with brute_force_best on random floats;
    the linear trend needs N >= 3."""
    series = scan_series(rows, chunks, n, p, exponent, offset, on_grid, flat, data_seed)
    with mock.patch.object(matching, "_CHUNK", rows * n):  # a chunk of rows windows
        for detrend_mode in (False, True)[: 1 + (n > 2)]:
            checked_pick(series.values, n, p, criterion, detrend_mode)


@pytest.mark.parametrize("detrend_mode", [False, True], ids=["none", "linear"])
@pytest.mark.parametrize("criterion, k, chunk", [
    (DIFF, 10**6, None), (DIFF, 10**4, 20 * 20), (CORR, 10**4, 20 * 20)],
    ids=["difference-real-chunk", "difference", "correlation"])
def test_scan_memory_is_bounded(criterion, k, chunk, detrend_mode):
    """The scan's peak is at most 16 bytes a candidate plus 8 chunks of float64 values.

    Its keys, validity flags and the pick's mask are about 11 bytes a candidate, and its
    temporaries a few chunks; unchunked, the window matrix alone would be N * K * 8 bytes =
    160 MB at N = 20 and K = 10^6. The K = 10^4 items scan in chunks of 20 windows, so the
    candidates' bytes dominate the bound; the real-chunk items check the 2^14-value chunk
    itself, stated here rather than read from the module, so a changed constant fails.
    """
    series, _ = quantize(generate(GeneratorSpec(length=k, noise=0.15, seed=1)), 32)
    patch = contextlib.nullcontext() if chunk is None else mock.patch.object(
        matching, "_CHUNK", chunk)
    with patch:
        tracemalloc.start()
        try:
            find_best_match(series, 20, 20, criterion, detrend_mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    bound = 16 * k + 8 * 8 * (chunk or 2**14)  # 2^14 values: the real chunk
    assert peak <= bound, f"{peak / k:.1f} bytes a candidate, {peak / bound:.0%} of the bound"


A = 5e307  # windows of +-A detrend to an L1 sum that overflows; the fit of [A, A, A] overflows
SINE_THEN_THIRDS = np.concatenate([np.sin(np.arange(1, 61) / 4), np.full(20, 1 / 3)])
PERIODIC = np.tile(np.sin(2 * np.pi * np.arange(1, 26) / 25), 4)  # repeats are bit-exact
RISE = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
# 60 uniforms, then the ramp 0, 1/3, .., 3, quantized on 27 levels as forecast does
RAMP_QUERY = quantize(TimeSeries(np.concatenate([np.random.default_rng(1).uniform(0, 3, 60),
                                                 np.arange(10) / 3])), 27)[0].values


def uniform(seed, k):
    """K seeded uniform(0, 1) values."""
    return np.random.RandomState(seed).uniform(0, 1, size=k)


def with_query_at(values, start, n):
    """A copy of values whose window at 1-based start repeats the query (last n values)."""
    out = np.array(values, dtype=float)
    out[start - 1 : start - 1 + n] = out[-n:]
    return out


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


# (id, values, N, P, criterion, detrend_mode, start[, score[, classes]]): the pick's start, or
# None for NoValidCandidate; its score; and each window's score class from window_keys, None for
# an excluded window.
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
    # a window that is an exact line in grid indices detrends to rounding noise, and its r is
    # undefined. Today the query's (ForecastConfig(5, 2.0, 27, "correlation", "linear")) gets
    # start 42 with r = 0.2192, and the candidate [0, 1, 2] at start 5 wins with r = 0.1147 over
    # start 4, the one exactly valid window, with r = -1. ROADMAP item 2 closes both rows
    ("exact-line-query", RAMP_QUERY, 10, 5, CORR, True, None),
    ("exact-line-candidate", 0.7 + 0.1 * np.array([0, 0, 0, 0, 0, 1, 2, 0]), 3, 1, CORR, True,
     4),
    # the argmax of r is the unscaled series' pick under a positive affine map
    *((f"test_correlation_argmax_affine_invariant-{draw}", scaled, 10, 5, CORR, False,
       brute_force_best(values, 10, 5, CORR, False)[0])
      for draw, values, scaled in affine_copies()),
]


@pytest.mark.parametrize("values, n, p, criterion, detrend_mode, expected", [
    pytest.param(*row[:5], tuple(row[5:]), id=name, marks=[ITEM_2] * name.startswith("exact-line"))
    for name, *row in PICKS])
def test_pick(values, n, p, criterion, detrend_mode, expected):
    """The matcher's pick agrees with brute_force_best, bit for bit, and is what the row states:
    compared by repr, so a score is compared by its bits, nan included."""
    match = checked_pick(values, n, p, criterion, detrend_mode)
    found = (None, None) if match is None else (match.start, match.score)
    if len(expected) == 3:  # r, not -r, under correlation
        found += (" ".join("None" if v is None else repr(v if criterion is DIFF else -v)
                           for v in window_keys(values, n, p, criterion, detrend_mode)),)
    assert list(map(repr, found[: len(expected)])) == list(map(repr, expected))
