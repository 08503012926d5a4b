"""Sliding-window Hurst estimation and crisis-date splitting."""

from __future__ import annotations

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
    """Per-window columns: first and last return dates (datetime64[D]), h and
    the fit's r². Construction marks the four arrays read-only."""

    id: str
    protocol: RollingProtocol
    start_dates: np.ndarray
    end_dates: np.ndarray
    h: np.ndarray
    r_squared: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.start_dates, self.end_dates, self.h, self.r_squared):
            column.flags.writeable = False


def window_offsets(n: int, window: int, step: int) -> range:
    """Start offsets 0, step, 2*step, ... of every complete window; there are
    floor((n - window) / step) + 1 of them."""
    if n < window:
        raise ValueError(f"series of length {n} is shorter than window {window}")
    return range(0, n - window + 1, step)


def rolling_hurst(returns: ReturnSeries, protocol: RollingProtocol) -> RollingResult:
    """One Hurst estimate per window, dated by the window's first and last return."""
    n, window, step = len(returns), protocol.window, protocol.step
    offsets = window_offsets(n, window, step)
    starts, ends = returns.dates[:n - window + 1:step], returns.dates[window - 1::step]
    estimates = _estimate_rows(returns.values, protocol)
    h, r_squared = np.empty(len(offsets)), np.empty(len(offsets))
    for i in range(len(offsets)):
        try:
            est = next(estimates)
        except ValueError as exc:
            raise ValueError(f"window {i + 1} ({starts[i]} to {ends[i]}): {exc}") from exc
        h[i], r_squared[i] = est.h, est.r_squared
    return RollingResult(returns.id, protocol, starts, ends, h, r_squared)


def split_at(
    result: RollingResult, split_date: Date | np.datetime64, by: str = "start"
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
    keys = result.start_dates if by == "start" else result.end_dates
    k = np.searchsorted(keys, np.datetime64(split_date, "D"))
    return result.h[:k], result.h[k:]
