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

from .series import (NoValidCandidate, SeriesTooShort, TimeSeries, _fit_rows, _positions,
                     detrend as _detrend, fit_linear_trend as _fit_linear_trend, pearson)
_pearson = pearson.__wrapped__  # pearson without its own error state: the scan below sets one
_CHUNK = 1 << 14  # values in one chunk of the difference scan, whatever N: 128 KB a temporary
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
    """Best-scoring candidate; ties go to the most recent (largest) start.

    Requires K >= N + P + 1, so at least one candidate exists apart from the
    query itself. With detrend_mode, the query and every candidate are
    independently detrended (own least-squares line over local positions)
    before scoring, so N >= 3. Under CORRELATION, a constant query raises NoValidCandidate, a
    window whose raw values are all equal or whose r is undefined (pearson gives None) is
    skipped, and NoValidCandidate is raised if none survive. A nan score (a trend fit that
    overflows) loses to every other score.
    """
    if window < 2 + detrend_mode:
        raise ValueError(f"window must be >= {2 + detrend_mode}, got {window}{_LINE * detrend_mode}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    values = series.values
    k = values.size
    minimum = window + horizon + 1
    if k < minimum:
        raise SeriesTooShort(k, minimum)
    difference = criterion is SimilarityCriterion.DIFFERENCE
    query = values[k - window :]
    if not difference and (query == query[0]).all():  # detrended, it would be rounding noise
        raise NoValidCandidate(f"the query, the last {window} values, is constant: r is undefined")
    rows = np.lib.stride_tricks.sliding_window_view(values[: k - horizon], window)  # candidates
    best_start, best_score = None, math.nan
    # an L1 score or a trend fit may overflow or underflow, and a fit of huge values be nan:
    # such a score loses below, and forecast refuses a trend transfer that is not finite
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if detrend_mode:
            query = _detrend(query, _fit_linear_trend(query))
        if difference:  # each chunk is C-contiguous, so each row's key has the 1-d window's bits
            keys = np.empty(len(rows))
            step = max(1, _CHUNK // window)  # rows a chunk
            for lo in range(0, keys.size, step):
                chunk = rows[lo : lo + step].copy()
                if detrend_mode:
                    slope, intercept = _fit_rows(chunk)
                    chunk -= slope[:, None] * _positions(window)[0] + intercept[:, None]
                keys[lo : lo + step] = np.abs(query - chunk).sum(axis=1)
            best_score = float(np.fmin.reduce(keys))  # least key not nan; all nan: last start
            return WindowMatch(keys.size - int(np.argmax(keys[::-1] == best_score)), best_score)
        for s, candidate in enumerate(rows, start=1):
            if candidate[0] == candidate[-1] and (candidate == candidate[0]).all():
                continue  # r is undefined, and detrended it would be a ramp of rounding residues
            if detrend_mode:
                candidate = _detrend(candidate, _fit_linear_trend(candidate))
            if (score := _pearson(query, candidate)) is None:
                continue
            if math.isnan(best_score) or score >= best_score:
                best_start, best_score = s, score
    if best_start is None:
        raise NoValidCandidate("every candidate window was excluded under the correlation criterion")
    return WindowMatch(best_start, best_score)
