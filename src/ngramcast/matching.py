"""Sliding-window phrase search: score every candidate against the query, keep the best.

A candidate is any historical window of length N whose P-step follower lies
fully inside observed history, so its 1-based start runs 1..K-N-P+1. The query
phrase, the last N values, is prepared once and compared with every candidate
in one exhaustive scan.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoValidCandidate, SeriesTooShort
from .series import TimeSeries, detrend, fit_linear_trend, pearson


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
    before scoring. Under CORRELATION, a window whose r is undefined (pearson gives
    None: zero variance) is skipped; NoValidCandidate is raised if none survive. A nan score
    (a trend fit that overflows) loses to every other score.
    """
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    values = series.values
    k = values.size
    minimum = window + horizon + 1
    if k < minimum:
        raise SeriesTooShort(k, minimum)
    difference = criterion is SimilarityCriterion.DIFFERENCE
    correlate = pearson.__wrapped__  # pearson without its own error state: this scan sets one
    best_start, best_score = None, math.nan
    # an L1 score or a trend fit may overflow or underflow, and a fit of huge values be nan:
    # such a score loses below, and forecast refuses a trend transfer that is not finite
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        query = values[k - window :]
        if detrend_mode:
            query = detrend(query, fit_linear_trend(query))
        for s in range(1, k - window - horizon + 2):
            candidate = values[s - 1 : s - 1 + window]
            if detrend_mode:
                candidate = detrend(candidate, fit_linear_trend(candidate))
            if difference:
                score = float(np.abs(query - candidate).sum())
            elif (score := correlate(query, candidate)) is None:
                continue
            if math.isnan(best_score) or (score <= best_score if difference else score >= best_score):
                best_start, best_score = s, score
    if best_start is None:
        raise NoValidCandidate(
            "every candidate window was excluded under the correlation criterion"
        )
    return WindowMatch(best_start, best_score)
