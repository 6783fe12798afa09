"""Independent reference for checking ngramcast outputs; never timed.

Nothing here imports ngramcast. The scorer covers all four
{difference, correlation} x {no detrend, linear detrend} modes with one
vectorised pass over the candidate windows, using the closed-form residual
w - mean(w) - b*(x - mean(x)), b = (w . xc) / (xc . xc). Degenerate windows
under correlation are found exactly, on integer grid indices, so rounding
noise cannot hide or invent one.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MODES = ("difference-none", "difference-linear", "correlation-none", "correlation-linear")
CHUNK = 2048  # candidate rows scored at once; bounds the scorer's memory
_MASK64 = (1 << 64) - 1


def close(got, want) -> bool:
    """|got - want| <= 1e-9 * (1 + |want|) elementwise, with equal lengths."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want)))
    )


def quantize(values: np.ndarray, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Snap to the nearest of levels+1 points spanning [min, max]; ties go up.

    Returns (quantized values, integer grid indices).
    """
    vmin = float(values.min())
    vmax = float(values.max())
    step = (vmax - vmin) / levels
    idx = np.clip(np.floor((values - vmin) / step + 0.5), 0, levels)
    snapped = np.where(idx == levels, vmax, vmin + idx * step)
    return snapped, idx.astype(np.int64)


def _residuals(windows: np.ndarray, xc: np.ndarray, detrend: bool) -> np.ndarray:
    if not detrend:
        return windows
    centred = windows - windows.mean(axis=-1, keepdims=True)
    slope = (centred @ xc) / (xc @ xc)
    return centred - slope[..., None] * xc


class Scores:
    """Reference scores of every candidate start for one series and mode."""

    def __init__(self, q: np.ndarray, idx: np.ndarray, window: int, horizon: int, mode: str):
        criterion, trend = mode.split("-")
        detrend = trend == "linear"
        k = q.size
        count = k - window - horizon + 1
        if count < 1:
            raise ValueError(f"no candidates: K={k}, N={window}, P={horizon}")
        x = np.arange(1, window + 1, dtype=np.float64)
        xc = x - x.mean()
        windows = sliding_window_view(q, window)[:count]
        rq = _residuals(q[k - window :], xc, detrend)
        if criterion == "correlation":
            rq = rq - rq.mean()
            rq_norm = math.sqrt(float(rq @ rq))
        scores = np.empty(count)
        for lo in range(0, count, CHUNK):
            rw = _residuals(windows[lo : lo + CHUNK], xc, detrend)
            if criterion == "difference":
                scores[lo : lo + CHUNK] = np.abs(rw - rq).sum(axis=1)
            else:
                rw = rw - rw.mean(axis=1, keepdims=True)
                with np.errstate(invalid="ignore", divide="ignore"):
                    scores[lo : lo + CHUNK] = (rw @ rq) / (
                        np.sqrt((rw * rw).sum(axis=1)) * rq_norm
                    )
        excluded = np.zeros(count, dtype=bool)
        if criterion == "correlation":
            # zero variance: constant index windows, or (detrended) exact lines
            iw = sliding_window_view(idx, window)[:count]
            if detrend:
                excluded = np.all(np.diff(iw, n=2, axis=1) == 0, axis=1)
            else:
                excluded = np.all(iw == iw[:, :1], axis=1)
        valid = scores[~excluded]
        if valid.size == 0:
            raise ValueError("every candidate is excluded")
        self.best = float(valid.min() if criterion == "difference" else valid.max())
        self.tolerance = 1e-9 * (1.0 + abs(self.best))
        self.scores = scores
        self.excluded = excluded
        self.candidates = count
        self.excluded_count = int(excluded.sum())
        self.near_ties = int(np.sum(~excluded & (np.abs(scores - self.best) <= self.tolerance)))

    def accepts(self, start: int, score: float) -> bool:
        """The 1-based start is a best candidate and score is its score."""
        if not 1 <= start <= self.candidates or self.excluded[start - 1]:
            return False
        ref = float(self.scores[start - 1])
        return abs(ref - self.best) <= self.tolerance and abs(score - ref) <= self.tolerance


def _line(y: np.ndarray) -> tuple[float, float]:
    """Least-squares (slope, intercept) over positions 1..n."""
    x = np.arange(1, y.size + 1, dtype=np.float64)
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean())) / float(xc @ xc)
    return slope, float(y.mean()) - slope * float(x.mean())


def phrase_forecast(q: np.ndarray, start: int, window: int, horizon: int, mode: str) -> np.ndarray:
    """Follower of the window at 1-based start, plus the trend transfer in linear mode."""
    s = start - 1
    follower = q[s + window : s + window + horizon]
    if not mode.endswith("linear"):
        return follower
    pos = np.arange(window + 1, window + horizon + 1, dtype=np.float64)
    bc, ac = _line(q[s : s + window])
    bq, aq = _line(q[q.size - window :])
    return follower - (bc * pos + ac) + (bq * pos + aq)


def holt(values, xi: float, phi: float, horizon: int) -> list[float]:
    """Double exponential smoothing with level x_1 and trend x_2 - x_1."""
    x = values.tolist() if isinstance(values, np.ndarray) else list(values)
    level = x[0]
    trend = x[1] - x[0]
    for v in x[1:]:
        prev = level
        level = (1.0 - xi) * v + xi * (level + trend)
        trend = (1.0 - phi) * (level - prev) + phi * trend
    return [level + j * trend for j in range(1, horizon + 1)]


def error_metrics(predicted, actual) -> tuple[float, float]:
    """(MAE, RMSE)."""
    err = np.asarray(predicted, dtype=np.float64) - np.asarray(actual, dtype=np.float64)
    return float(np.mean(np.abs(err))), float(np.sqrt(np.mean(err * err)))


def splitmix_uniform(half_width: float, count: int, seed: int) -> np.ndarray:
    """Uniforms on [-half_width, half_width] from the documented splitmix64 stepper."""
    i = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & _MASK64) + i * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (2.0 * (z.astype(np.float64) / 2.0**64) - 1.0) * half_width


def generated(length: int, period: float, amplitude: float, phase: float, slope: float,
              quadratic: float, noise: float, seed: int) -> np.ndarray:
    """amplitude*sin(2*pi*k/period + phase) + slope*k + quadratic*k^2 + u_k, k = 1..length."""
    k = np.arange(1, length + 1, dtype=np.float64)
    values = (amplitude * np.sin(2.0 * math.pi * k / period + phase)
              + slope * k + quadratic * k * k)
    if noise > 0.0:
        values = values + splitmix_uniform(noise, length, seed)
    return values
