"""Sliding-window Hurst estimation and crisis-date splitting."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from datetime import date as Date

import numpy as np

from .estimators import RollingProtocol, _estimate_rows
from .series import ReturnSeries

__all__ = [
    "RollingProtocol",
    "RollingResult",
    "window_offsets",
    "rolling_hurst",
    "split_at",
]

WINDOW_COUNT_RULE = "floor((N - window) / step) + 1"


@dataclass(frozen=True, eq=False)
class RollingResult:
    """Per-window columns: first and last return dates, h and the fit's r².

    Construction marks the ``h`` and ``r_squared`` arrays read-only.
    """

    id: str
    protocol: RollingProtocol
    start_dates: tuple[Date, ...]
    end_dates: tuple[Date, ...]
    h: np.ndarray
    r_squared: np.ndarray

    def __post_init__(self) -> None:
        self.h.flags.writeable = self.r_squared.flags.writeable = False


def window_offsets(n: int, window: int, step: int) -> range:
    """Start offsets 0, step, 2*step, ... of every complete window; there are
    floor((n - window) / step) + 1 of them."""
    if n < window:
        raise ValueError(f"series of length {n} is shorter than window {window}")
    return range(0, n - window + 1, step)


def rolling_hurst(returns: ReturnSeries, protocol: RollingProtocol) -> RollingResult:
    """One Hurst estimate per window, dated by the window's first and last return."""
    values, dates, last = returns.values, returns.dates, protocol.window - 1
    offsets = window_offsets(values.size, protocol.window, protocol.step)
    starts = tuple(dates[off] for off in offsets)
    ends = tuple(dates[off + last] for off in offsets)
    estimates = _estimate_rows(values, protocol)
    h, r_squared = np.empty(len(offsets)), np.empty(len(offsets))
    for i in range(len(offsets)):
        try:
            est = next(estimates)
        except ValueError as exc:
            raise ValueError(f"window {i + 1} ({starts[i]} to {ends[i]}): {exc}") from exc
        h[i], r_squared[i] = est.h, est.r_squared
    return RollingResult(returns.id, protocol, starts, ends, h, r_squared)


def split_at(
    result: RollingResult, split_date: Date, by: str = "start"
) -> tuple[np.ndarray, np.ndarray]:
    """Hurst exponents of the windows dated before ``split_date``, then the rest.

    ``by`` selects which window date classifies the estimate: "start" (a
    window belongs to the before group if it begins before the split, even
    when it spans it) or "end".
    """
    if by not in ("start", "end"):
        raise ValueError("split classification must be 'start' or 'end'")
    if not result.h.size:
        raise ValueError("cannot split an empty rolling result")
    k = bisect_left(result.start_dates if by == "start" else result.end_dates, split_date)
    return result.h[:k], result.h[k:]
