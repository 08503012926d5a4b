"""Dated price/return series containers and descriptive statistics.

Returns are continuously compounded and expressed in percent. Descriptive
moments follow the population convention (divide by n) with non-excess
kurtosis, so a normal sample has kurtosis near 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PriceSeries",
    "ReturnSeries",
    "DescriptiveStats",
    "log_returns",
    "describe",
    "jarque_bera",
]


def jarque_bera(skewness: float, kurtosis: float, n: int) -> float:
    """Jarque-Bera statistic from population skewness and non-excess kurtosis."""
    return n / 6.0 * (skewness**2 + (kurtosis - 3.0) ** 2 / 4.0)


def _values_column(series: PriceSeries | ReturnSeries, name: str) -> np.ndarray:
    """Make ``dates`` and ``values`` read-only datetime64[D] and float64 copies
    and check them: one value per date, dates strictly increasing."""
    dates = np.array(series.dates, dtype="datetime64[D]")
    column = np.array(series.values, dtype=float)
    dates.flags.writeable = column.flags.writeable = False
    object.__setattr__(series, "dates", dates)
    object.__setattr__(series, "values", column)
    if dates.ndim != 1 or column.shape != dates.shape:
        raise ValueError(f"dates and {name} must have equal length")
    if np.isnat(dates).any():
        raise ValueError("dates not strictly increasing at NaT")
    later = np.flatnonzero(dates[1:] <= dates[:-1])
    if later.size:
        raise ValueError(f"dates not strictly increasing at {dates[later[0] + 1]}")
    return column


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Ordered, dated price levels for one index.

    Invariants: dates strictly increasing, every price positive and finite,
    at least two observations. ``dates`` (datetime64 or ``datetime.date``
    values) and ``values`` become read-only datetime64[D] and float64 arrays.
    """

    id: str
    dates: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        p = _values_column(self, "prices")
        if p.size < 2:
            raise ValueError(f"price series '{self.id}' needs at least 2 observations")
        bad = np.flatnonzero(~(np.isfinite(p) & (p > 0)))
        if bad.size:
            value, at = float(p[bad[0]]), self.dates[bad[0]]
            cause = "non-finite" if not math.isfinite(value) else "non-positive"
            raise ValueError(f"{cause} price {value} at {at}")

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """Ordered, dated continuously compounded returns in percent, as read-only
    datetime64[D] ``dates`` and float64 ``values`` arrays."""

    id: str
    dates: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        r = _values_column(self, "returns")
        if not r.size:
            raise ValueError(f"return series '{self.id}' is empty")
        bad = np.flatnonzero(~np.isfinite(r))
        if bad.size:
            raise ValueError(f"non-finite return at {self.dates[bad[0]]}")

    def __len__(self) -> int:
        return self.values.size


def log_returns(prices: PriceSeries) -> ReturnSeries:
    """Continuously compounded percent returns, dated by the later observation.

    r[t+1] = ln(p[t+1] / p[t]) * 100

    A ratio of two prices that leaves the float range raises, naming them.
    """
    p = prices.values
    with np.errstate(over="ignore"):  # the check below names the prices
        ratio = p[1:] / p[:-1]
    bad = np.flatnonzero(~((ratio > 0) & (ratio < np.inf)))
    if bad.size:
        t = bad[0]
        raise ValueError(f"prices {float(p[t])} then {float(p[t + 1])} at {prices.dates[t + 1]}: "
                         f"their ratio {'over' if ratio[t] else 'under'}flows the float range")
    return ReturnSeries(prices.id, prices.dates[1:], np.log(ratio) * 100.0)


@dataclass(frozen=True)
class DescriptiveStats:
    """Population-convention moment summary of one sample.

    ``skewness``, ``kurtosis`` and ``jarque_bera`` are None when the sample
    has zero variance (the higher moments are undefined there).
    """

    n: int
    mean: float
    median: float
    min: float
    max: float
    std_dev: float
    skewness: float | None
    kurtosis: float | None
    jarque_bera: float | None


def describe(values: Sequence[float]) -> DescriptiveStats:
    """Descriptive statistics of a float sequence (pass a series' ``.values``).

    Uses population (1/n) moments and non-excess kurtosis. A constant sample
    yields std_dev 0 with the higher moments reported as None. Requires at
    least 4 observations so the fourth moment is meaningful, and finite ones.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 4:
        raise ValueError(f"need at least 4 observations to describe, got {n}")
    lo, hi = float(x.min()), float(x.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):  # a NaN makes both NaN
        at = np.flatnonzero(~np.isfinite(x))[0]
        raise ValueError(f"cannot describe non-finite value {x[at]} at index {at}")
    mean = float(x.mean())
    median = float(np.median(x))
    dev = x - mean
    m2 = float(np.mean(dev**2))
    # constant, or non-constant with deviations that underflow squaring
    if lo == hi or m2 == 0.0:
        return DescriptiveStats(n, mean, median, lo, hi, 0.0, None, None, None)
    std = math.sqrt(m2)
    z = dev / std  # standardize first so tiny variances cannot underflow
    skew = float(np.mean(z**3))
    kurt = float(np.mean(z**4))
    return DescriptiveStats(
        n, mean, median, lo, hi, std, skew, kurt, jarque_bera(skew, kurt, n)
    )
