"""Hurst exponent estimation via rescaled range and detrended fluctuation analysis.

Both estimators reduce a series to scaling points (block size, statistic) and
read the Hurst exponent off the slope of an ordinary least squares fit of
log(statistic) on log(block size).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_LADDER_SIZES",
    "BlockLadder",
    "HurstEstimate",
    "fit_power_law",
    "estimate_from_points",
    "rs_statistic",
    "hurst_rs",
    "dfa_profile",
    "dfa_fluctuation",
    "hurst_dfa",
]

# Six octave-spaced sizes; the largest stays within half of a 500-point window.
DEFAULT_LADDER_SIZES = (4, 8, 16, 32, 64, 128)

METHOD_DFA = "dfa"
METHOD_RS = "rs"

# Values spanning at most this fraction of their largest magnitude are flat:
# what varies is rounding, as in a price that compounds at a fixed rate.
FLAT_SPREAD = 1e-9


@dataclass(frozen=True)
class BlockLadder:
    """Strictly increasing block sizes at which scaling statistics are evaluated.

    Each size must be at least 4 and there must be at least 3 sizes so the
    log-log regression has a residual degree of freedom. The largest size may
    not exceed half the series length; that check is relative to a series and
    happens in :meth:`check_series_length`.
    """

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) < 3:
            raise ValueError("ladder needs at least 3 sizes")
        if any(s < 4 for s in sizes):
            raise ValueError("every ladder size must be >= 4")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("ladder sizes must be strictly increasing")

    @classmethod
    def default(cls) -> "BlockLadder":
        return cls(DEFAULT_LADDER_SIZES)

    @property
    def max_size(self) -> int:
        return self.sizes[-1]

    def check_series_length(self, n: int) -> None:
        if self.max_size > n // 2:
            raise ValueError(
                f"largest ladder size {self.max_size} exceeds half the "
                f"series length ({n} points)"
            )

    def __iter__(self):
        return iter(self.sizes)

    def __len__(self) -> int:
        return len(self.sizes)


def fit_power_law(points: Iterable[tuple[float, float]]) -> tuple[float, float, float]:
    """OLS fit of log(value) on log(size); returns (slope, intercept, r_squared).

    Needs at least two points with positive sizes and values. ``r_squared`` is
    1.0 for a horizontal perfect fit (zero total variation).
    """
    pts = np.array(list(points), dtype=float).reshape(-1, 2)
    if len(pts) < 2:
        raise ValueError("power-law fit needs at least 2 points")
    if np.any(pts <= 0):
        raise ValueError("power-law fit needs positive sizes and values")
    x, y = np.log(pts[:, 0]), np.log(pts[:, 1])
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0:
        raise ValueError("power-law fit needs at least 2 distinct sizes")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    ss_res = float(np.sum((y - (intercept + slope * x)) ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, min(1.0, max(0.0, r2))


@dataclass(frozen=True)
class HurstEstimate:
    """One Hurst exponent with its regression diagnostics.

    ``h``, ``intercept`` and ``r_squared`` come from one log-log fit through
    ``points``, the (size, statistic) pairs kept from ``ladder``; at least 3
    are needed. ``detrend_order`` is the DFA order and None for R/S.
    """

    method: str
    detrend_order: int | None
    ladder: BlockLadder
    points: tuple[tuple[int, float], ...]
    h: float = field(init=False)
    intercept: float = field(init=False)
    r_squared: float = field(init=False)

    def __post_init__(self) -> None:
        if self.method not in (METHOD_DFA, METHOD_RS):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == METHOD_DFA:
            if self.detrend_order is None or self.detrend_order < 1:
                raise ValueError("DFA estimates need detrend_order >= 1")
        elif self.detrend_order is not None:
            raise ValueError("detrend_order applies to DFA only")
        if len(self.points) < 3:
            raise ValueError(f"insufficient scaling points: only {len(self.points)} of "
                             f"{len(self.ladder)} ladder sizes have a positive statistic")
        for name, value in zip(("h", "intercept", "r_squared"), fit_power_law(self.points)):
            object.__setattr__(self, name, value)


def estimate_from_points(
    points: Iterable[tuple[int, float]],
    *,
    method: str,
    ladder: BlockLadder,
    detrend_order: int | None = None,
) -> HurstEstimate:
    """Build a HurstEstimate by regressing the given scaling points."""
    pts = tuple((int(m), float(v)) for m, v in points)
    return HurstEstimate(method, detrend_order, ladder, pts)


def _ladder_estimate(x: Sequence[float], ladder: BlockLadder | None, method: str,
                     statistic: Callable[[np.ndarray, int], float],
                     detrend_order: int | None = None) -> HurstEstimate:
    """Fit the sizes of ``ladder`` (the default when None) whose statistic is
    positive; a zero statistic has no logarithm. A flat series keeps no size,
    since its statistics measure rounding. DFA works on the profile."""
    ladder = BlockLadder.default() if ladder is None else ladder
    arr = np.asarray(x, dtype=float)
    ladder.check_series_length(arr.size)
    lo, hi = float(arr.min()), float(arr.max())
    points = []
    if hi - lo > FLAT_SPREAD * max(-lo, hi):
        if method == METHOD_DFA:
            arr = dfa_profile(arr)
        points = [(m, s) for m in ladder if (s := statistic(arr, m)) > 0]
    return estimate_from_points(points, method=method, ladder=ladder,
                                detrend_order=detrend_order)


def rs_statistic(x: Sequence[float]) -> float:
    """Rescaled range: spread of the partial sums of mean deviations over the
    population standard deviation.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size < 2:
        raise ValueError(f"R/S needs at least 2 points, got {arr.size}")
    value = _block_rs_values(arr, arr.size)
    if not value.size:
        raise ValueError("degenerate window: zero variance")
    return float(value[0])


def _block_rs_values(x: np.ndarray, tau: int) -> np.ndarray:
    """R/S per non-overlapping block of length tau; degenerate blocks dropped."""
    nblocks = x.size // tau
    blocks = x[: nblocks * tau].reshape(nblocks, tau)
    dev = blocks - blocks.mean(axis=1, keepdims=True)
    s = np.sqrt(np.mean(dev**2, axis=1))
    spread = np.ptp(blocks, axis=1)
    keep = (s > 0) & (spread > 0)
    cum = np.cumsum(dev[keep], axis=1)
    rng = cum.max(axis=1) - cum.min(axis=1)
    return rng / s[keep]


def _mean_rs(x: np.ndarray, tau: int) -> float:
    """Mean R/S over the usable blocks of length tau; 0 when there are none."""
    vals = _block_rs_values(x, tau)
    return float(vals.mean()) if vals.size else 0.0


def hurst_rs(x: Sequence[float], ladder: BlockLadder | None = None) -> HurstEstimate:
    """Hurst exponent from block-averaged R/S statistics over a size ladder.

    For each ladder size the series is cut into non-overlapping blocks, the
    rescaled range is averaged across the non-degenerate blocks, and the
    exponent is the slope of log(mean R/S) on log(size). Sizes with no
    non-degenerate block are dropped; fewer than 3 survivors raise.
    """
    return _ladder_estimate(x, ladder, METHOD_RS, _mean_rs)


def dfa_profile(y: Sequence[float]) -> np.ndarray:
    """Integrated series: cumulative sum of deviations from the mean."""
    arr = np.asarray(y, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot build a profile from an empty series")
    return np.cumsum(arr - arr.mean())


def dfa_fluctuation(x_profile: Sequence[float], m: int, order: int = 1) -> float:
    """Root mean square detrending residual at block size m.

    The profile is cut into floor(M/m) non-overlapping windows from the first
    point; each window gets an independent least-squares polynomial fit of the
    given order against the within-window index. Trailing points beyond the
    last complete window are excluded and the divisor is the number of
    covered points.
    """
    prof = np.asarray(x_profile, dtype=float)
    if order < 0:
        raise ValueError("detrend order must be >= 0")
    if m < order + 2:
        raise ValueError(f"block size {m} too small for an order-{order} fit")
    if m > prof.size:
        raise ValueError(f"block size {m} exceeds profile length {prof.size}")
    nwin = prof.size // m
    segments = prof[: nwin * m].reshape(nwin, m)
    design = np.vander(np.arange(m, dtype=float), order + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(design, segments.T, rcond=None)
    resid = design @ coef - segments.T
    return float(np.sqrt(np.mean(resid * resid)))


def hurst_dfa(
    y: Sequence[float], ladder: BlockLadder | None = None, order: int = 1
) -> HurstEstimate:
    """Hurst exponent via detrended fluctuation analysis.

    Builds the profile, evaluates the fluctuation function at every ladder
    size, drops sizes with zero fluctuation (log undefined), and regresses
    log F on log m. Raises if fewer than 3 sizes survive.
    """
    if order < 1:
        raise ValueError("DFA detrend order must be >= 1")
    fluctuation = partial(dfa_fluctuation, order=order)
    return _ladder_estimate(y, ladder, METHOD_DFA, fluctuation, order)
