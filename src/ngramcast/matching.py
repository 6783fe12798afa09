"""Sliding-window phrase search: score every candidate against the query, keep the best.

A candidate is any historical window of length N whose P-step follower lies
fully inside observed history, so its 1-based start runs 1..K-N-P+1. The query
phrase, the last N values, is prepared once and compared with every candidate
in one exhaustive scan.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .series import NoValidCandidate, SeriesTooShort, TimeSeries, _detrend_rows, pearson
_pearson = pearson.__wrapped__  # pearson without its own error state: the scan below sets one
_CHUNK = 1 << 14  # values in one chunk of the scan, whatever N: 128 KB a temporary
_LINE = ": a line fits any 2 points, so a detrended window of 2 is only rounding noise"


class SimilarityCriterion(enum.Enum):
    """How candidate phrases are compared to the query phrase.

    DIFFERENCE: sum of absolute element-wise differences, minimized (0 means
    the phrases coincide). CORRELATION: sample Pearson correlation, maximized.
    """

    DIFFERENCE = "difference"
    CORRELATION = "correlation"


@dataclass(frozen=True)
class WindowMatch:
    start: int  # 1-based position of the candidate window's first element
    score: float


def find_best_match(
    series: TimeSeries,
    window: int,
    horizon: int,
    criterion: SimilarityCriterion,
    detrend_mode: bool = False,
) -> WindowMatch:
    """The valid window with the least key that is not nan; ties go to the latest start.

    A window's key is its score under DIFFERENCE and -r under CORRELATION; the reported
    score is the key, negated back under CORRELATION. If every valid key is nan (a trend fit
    of values near float64's limit that overflows), the last valid start wins; if no window
    is valid, NoValidCandidate is raised.

    Requires K >= N + P + 1, so at least one candidate exists apart from the query itself.
    With detrend_mode, the query and every candidate are independently detrended (own
    least-squares line over local positions) before scoring, so N >= 3. Under CORRELATION,
    a constant query raises NoValidCandidate, and a window whose raw values are all equal
    or whose r is undefined (pearson gives None) is not valid.
    """
    if window < 2 + detrend_mode:
        raise ValueError(f"window must be >= {2 + detrend_mode}, got {window}{_LINE * detrend_mode}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    difference = SimilarityCriterion(criterion) is SimilarityCriterion.DIFFERENCE  # or its value
    values = series.values
    k = values.size
    minimum = window + horizon + 1
    if k < minimum:
        raise SeriesTooShort(k, minimum)
    query = values[k - window :]
    if not difference and (query == query[0]).all():  # detrended, it would be rounding noise
        raise NoValidCandidate(f"the query, the last {window} values, is constant: r is undefined")
    rows = np.lib.stride_tricks.sliding_window_view(values[: k - horizon], window)  # candidates
    keys, valid = np.empty(len(rows)), np.ones(len(rows), dtype=bool)
    step = max(1, _CHUNK // window)  # rows a chunk
    # an L1 sum or a fit may overflow or be nan: such a key loses, and forecast refuses the fit
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if detrend_mode:
            query = _detrend_rows(query.copy())
        for lo in range(0, keys.size, step):
            chunk = rows[lo : lo + step].copy()  # C-contiguous, so each key has a 1-d window's bits
            if not difference:  # r is undefined; detrended, it would be a ramp of rounding residues
                valid[lo : lo + step] = (chunk != chunk[:, :1]).any(axis=1)
            if detrend_mode:
                _detrend_rows(chunk)
            if difference:
                keys[lo : lo + step] = np.abs(query - chunk).sum(axis=1)
            else:  # -r, or nan where r is undefined
                r = [_pearson(query, row) if ok else None for row, ok in zip(chunk, valid[lo:])]
                valid[lo : lo + step] = [v is not None for v in r]
                keys[lo : lo + step] = [math.nan if v is None else -v for v in r]
    if not valid.any():
        raise NoValidCandidate("every candidate window was excluded under the correlation criterion")
    least = np.fmin.reduce(keys)  # an excluded window's key is nan
    start = keys.size - int(np.argmax((valid if math.isnan(least) else keys == least)[::-1]))
    score = float(keys[start - 1])
    return WindowMatch(start, score if difference else -score)
