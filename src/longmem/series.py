"""Dated price/return series containers and descriptive statistics.

Returns are continuously compounded and expressed in percent. Descriptive
moments follow the population convention (divide by n) with non-excess
kurtosis, so a normal sample has kurtosis near 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date
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


def _check_dates_increasing(dates: Sequence[Date]) -> None:
    for prev, cur in zip(dates, dates[1:]):
        if cur <= prev:
            raise ValueError(f"dates not strictly increasing at {cur.isoformat()}")


@dataclass(frozen=True)
class PriceSeries:
    """Ordered, dated price levels for one index.

    Invariants: dates strictly increasing, every price positive and finite,
    at least two observations.
    """

    id: str
    dates: tuple[Date, ...]
    prices: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.dates) != len(self.prices):
            raise ValueError("dates and prices must have equal length")
        if len(self.prices) < 2:
            raise ValueError(f"price series '{self.id}' needs at least 2 observations")
        _check_dates_increasing(self.dates)
        for d, p in zip(self.dates, self.prices):
            if not math.isfinite(p):
                raise ValueError(f"non-finite price {p} at {d.isoformat()}")
            if p <= 0:
                raise ValueError(f"non-positive price {p} at {d.isoformat()}")

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self.prices, dtype=float)

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class ReturnSeries:
    """Ordered, dated continuously compounded returns in percent."""

    id: str
    dates: tuple[Date, ...]
    returns: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.dates) != len(self.returns):
            raise ValueError("dates and returns must have equal length")
        if not self.returns:
            raise ValueError(f"return series '{self.id}' is empty")
        _check_dates_increasing(self.dates)
        for d, r in zip(self.dates, self.returns):
            if not math.isfinite(r):
                raise ValueError(f"non-finite return at {d.isoformat()}")

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self.returns, dtype=float)

    def __len__(self) -> int:
        return len(self.returns)


def log_returns(prices: PriceSeries) -> ReturnSeries:
    """Continuously compounded percent returns, dated by the later observation.

    r[t+1] = ln(p[t+1] / p[t]) * 100
    """
    p = prices.values
    rets = np.log(p[1:] / p[:-1]) * 100.0
    return ReturnSeries(prices.id, prices.dates[1:], tuple(float(r) for r in rets))


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

    def __post_init__(self) -> None:
        if not (self.min <= self.median <= self.max):
            raise ValueError("order statistics violated: need min <= median <= max")
        if self.std_dev < 0:
            raise ValueError("std_dev must be non-negative")
        defined = (self.skewness is not None, self.kurtosis is not None,
                   self.jarque_bera is not None)
        if any(defined) != all(defined):
            raise ValueError("higher moments must be all defined or all undefined")
        if self.jarque_bera is not None:
            expected = jarque_bera(self.skewness, self.kurtosis, self.n)
            if abs(self.jarque_bera - expected) > 1e-9 * max(1.0, abs(expected)):
                raise ValueError("jarque_bera inconsistent with stored moments")


def describe(values: Sequence[float]) -> DescriptiveStats:
    """Descriptive statistics of a float sequence (pass a series' ``.values``).

    Uses population (1/n) moments and non-excess kurtosis. A constant sample
    yields std_dev 0 with the higher moments reported as None. Requires at
    least 4 observations so the fourth moment is meaningful.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 4:
        raise ValueError(f"need at least 4 observations to describe, got {n}")
    mean = float(x.mean())
    median = float(np.median(x))
    lo, hi = float(x.min()), float(x.max())
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
