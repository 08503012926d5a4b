"""Hurst exponent estimation via rescaled range and detrended fluctuation analysis.

Both estimators reduce a series to scaling points (block size, statistic) and
read the Hurst exponent off the slope of an ordinary least squares fit of
log(statistic) on log(block size).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "DEFAULT_LADDER_SIZES",
    "BlockLadder",
    "RollingProtocol",
    "HurstEstimate",
    "fit_power_law",
    "estimate_from_points",
    "hurst_rs",
    "dfa_profile",
    "dfa_fluctuation",
    "hurst_dfa",
]

# Six octave-spaced sizes; the largest stays within half of a 500-point window.
DEFAULT_LADDER_SIZES = (4, 8, 16, 32, 64, 128)

METHOD_DFA = "dfa"
METHOD_RS = "rs"

# A window's floor, as a fraction of its largest magnitude: a DFA fluctuation or R/S
# block range at or under it is rounding (stale zero returns, fixed-rate accrual).
FLAT_SPREAD = 1e-9
CHUNK = 1 << 14  # a chunk's index entries; its block values: 4x (DFA) or 2x (R/S) this


@dataclass(frozen=True)
class BlockLadder:
    """Strictly increasing block sizes at which scaling statistics are evaluated.

    Each size must be at least 4 and there must be at least 3 sizes so the
    log-log regression has a residual degree of freedom. The largest size may
    not exceed half the window it is applied to, and the largest must be at
    least twice the smallest; :class:`RollingProtocol` checks both, for a
    rolling window or a whole series alike.
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

    @property
    def max_size(self) -> int:
        return self.sizes[-1]

    def __iter__(self):
        return iter(self.sizes)

    def __len__(self) -> int:
        return len(self.sizes)


@dataclass(frozen=True)
class RollingProtocol:
    """Fixed-length windows advanced by a fixed step, one estimate per window: the
    one owner of the estimator settings, their defaults and their checks. A
    whole-series estimate is the one-window case (``window`` the series length).
    ``ladder``, a BlockLadder, sizes or None (the default), is held as a BlockLadder."""

    window: int = 500
    step: int = 7
    estimator: str = METHOD_DFA
    ladder: Iterable[int] | None = None
    detrend_order: int = 1

    def __post_init__(self) -> None:
        sizes = DEFAULT_LADDER_SIZES if self.ladder is None else tuple(self.ladder)
        object.__setattr__(self, "ladder", BlockLadder(sizes))
        if self.estimator not in (METHOD_DFA, METHOD_RS):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.step < 1:
            raise ValueError("step must be >= 1")
        if self.window < 2 * self.ladder.max_size:
            raise ValueError(
                f"window {self.window} must be at least twice the largest "
                f"ladder size ({self.ladder.max_size})"
            )
        smallest, largest = self.ladder.sizes[0], self.ladder.max_size
        if largest < 2 * smallest:  # a slope fit then scales rounding several-fold
            raise ValueError(
                f"ladder {','.join(map(str, self.ladder))} spans {largest}/{smallest} = "
                f"{largest / smallest:.2f}, less than the one octave a slope needs")
        if self.detrend_order < 1:
            raise ValueError("detrend_order must be >= 1")
        if self.estimator == METHOD_DFA and smallest < self.detrend_order + 2:
            raise ValueError(
                f"block size {smallest} too small for an order-{self.detrend_order} fit")

    def protocol_dict(self) -> dict:
        """The five settings as JSON values, the ladder as a list of its sizes."""
        settings = {f.name: getattr(self, f.name) for f in fields(RollingProtocol)}
        return {**settings, "ladder": list(self.ladder)}


def fit_power_law(points: Iterable[tuple[float, float]]) -> tuple[float, float, float]:
    """OLS fit of log(value) on log(size); returns (slope, intercept, r_squared).

    Needs at least two points with positive sizes and values. ``r_squared`` is
    1.0 for a horizontal perfect fit (total variation within rounding of the
    logs). The arithmetic is on plain floats (``math.log`` and sequential
    sums), as a fit through a handful of points costs less that way than in
    numpy calls; it agrees with the same formulas in numpy to a few ulp.
    """
    pts = list(points)
    n = len(pts)
    if n < 2:
        raise ValueError("power-law fit needs at least 2 points")
    if any(m <= 0 or v <= 0 for m, v in pts):  # a NaN passes and yields NaN
        raise ValueError("power-law fit needs positive sizes and values")
    x, xm, dx, sxx = _size_side(tuple([m for m, _ in pts]))
    y = [math.log(v) for _, v in pts]
    ym = sum(y) / n
    dy = [b - ym for b in y]
    slope = sum([a * b for a, b in zip(dx, dy)]) / sxx
    intercept = ym - slope * xm
    res = [b - (intercept + slope * a) for a, b in zip(x, y)]
    ss_res = sum([r * r for r in res])
    ss_tot = sum([d * d for d in dy])
    # the mean of equal logs can round, leaving ulp-sized deviations from it
    flat = (n * 4 * sys.float_info.epsilon * max(map(abs, y))) ** 2
    r2 = 1.0 if ss_tot <= flat else 1.0 - ss_res / ss_tot
    return slope, intercept, min(1.0, max(0.0, r2))


@lru_cache(maxsize=256)
def _size_side(sizes: tuple[float, ...]) -> tuple:
    """``fit_power_law``'s log sizes, their mean, deviations and sum of squares."""
    x = tuple([math.log(m) for m in sizes])
    xm = sum(x) / len(x)
    dx = tuple([a - xm for a in x])
    sxx = sum([d * d for d in dx])
    if sxx == 0:
        raise ValueError("power-law fit needs at least 2 distinct sizes")
    return x, xm, dx, sxx


@dataclass(frozen=True)
class HurstEstimate:
    """One Hurst exponent with its regression diagnostics.

    ``h``, ``intercept`` and ``r_squared`` come from one log-log fit through
    ``points``, the (size, statistic) pairs kept from ``ladder``.
    ``detrend_order`` is the DFA order and None for R/S.
    """

    method: str
    detrend_order: int | None
    ladder: BlockLadder
    points: tuple[tuple[int, float], ...]
    h: float
    intercept: float
    r_squared: float


def estimate_from_points(
    points: Iterable[tuple[int, float]],
    *,
    method: str,
    ladder: BlockLadder,
    detrend_order: int | None = None,
) -> HurstEstimate:
    """Build a HurstEstimate by regressing the given scaling points, at least 3."""
    pts = tuple([(int(m), float(v)) for m, v in points])
    if len(pts) < 3:
        raise ValueError(f"insufficient scaling points: only {len(pts)} of "
                         f"{len(ladder)} ladder sizes have a positive statistic")
    return HurstEstimate(method, detrend_order, ladder, pts, *fit_power_law(pts))


def _ladder_stats(values: np.ndarray, protocol: RollingProtocol) -> np.ndarray:
    """The windows x sizes matrix of statistics of ``values`` under ``protocol``,
    whose checks have passed: a row per window (``window`` points, starting every
    ``step`` points from the first), a column per ladder size, 0 where
    ``_shared_blocks`` finds none above the window's floor, ``FLAT_SPREAD`` of its
    largest magnitude (one reduction over all windows, copying none). Each ladder
    size is one pass over all windows, in chunks sized for it. Each step is
    element-wise, a sum or contraction along a row or an exact max or min, so a
    window gives the same bits alone or among others, whatever the chunks or layout."""
    # every step past the series gives the first window alone; capped, it fits int64
    window, step, ladder = protocol.window, min(protocol.step, values.size), protocol.ladder
    order = protocol.detrend_order if protocol.estimator == METHOD_DFA else None
    windows = sliding_window_view(values, window)[::step]
    count = len(windows)
    floor = FLAT_SPREAD * np.maximum(-windows.min(axis=-1), windows.max(axis=-1))
    stats = np.empty((count, len(ladder)))
    cap = 4 * CHUNK if order else 2 * CHUNK  # R/S keeps the cap its fill was tuned at
    for column, m in enumerate(ladder):
        blocks = window // m
        # caps: block values in the layout that holds fewer, the windows x blocks index
        per_size = max(1, min(cap // (m * min(blocks, step)), CHUNK // blocks))
        for first in range(0, count, per_size):
            last = min(count, first + per_size)
            stats[first:last, column] = _shared_blocks(
                values, step * np.arange(first, last), window, m, floor[first:last], order)
    return stats


def _fit(row: np.ndarray, protocol: RollingProtocol) -> HurstEstimate:
    """One window's estimate, through the positive entries of its ``_ladder_stats`` row."""
    points = [(m, s) for m, s in zip(protocol.ladder, row.tolist()) if s > 0]
    order = protocol.detrend_order if protocol.estimator == METHOD_DFA else None
    return estimate_from_points(points, method=protocol.estimator, ladder=protocol.ladder,
                                detrend_order=order)


def _whole_series(x: Sequence[float], estimator: str, ladder: Iterable[int] | None,
                  order: int = 1) -> HurstEstimate:
    """The estimate of ``x`` as the one window of a protocol, once every value is finite."""
    values = np.asarray(x, dtype=float).reshape(-1)
    protocol = RollingProtocol(values.size, 1, estimator, ladder, order)
    if not np.isfinite(values).all():
        at = np.flatnonzero(~np.isfinite(values))[0]
        raise ValueError(f"cannot estimate from non-finite value {values[at]} at index {at}")
    return _fit(_ladder_stats(values, protocol)[0], protocol)


def _shared_blocks(x: np.ndarray, starts: np.ndarray, window: int, tau: int,
                   floor: np.ndarray, order: int | None = None) -> np.ndarray:
    """The statistic at size tau of each window of ``x`` that starts at
    ``starts`` (increasing, evenly spaced), over the blocks as ``_block_layout``
    reads them in place. Either way a cumulative sum along each block fills one
    buffer the call owns (``_cumsum_last``). With ``order``, DFA: that buffer
    holds each block's own profile and is detrended in place (an order >= 1 fit
    removes the affine term by which it differs from the window's profile), and
    F, the root mean of the window's block residuals, counts above ``floor``.
    Without, R/S: the mean over blocks whose range exceeds ``floor`` and whose
    standard deviation s stays positive. Means and s run along blocks; the
    buffer holds the cumulative deviations down its columns, whose max - min is
    R. As range >= max|x - mean| >= s, only blocks with 0 < s <=
    2 * floor.max() need their exact range (``_ranges``; 2 covers the rounding of
    the mean and s, ~1e-14 of the values); the rest get +inf, or -inf at s == 0,
    so one gather decides which blocks count. A window with nothing that counts
    gives 0."""
    blocks, index = _block_layout(x, starts, window, tau)
    if order is not None:
        profile = _cumsum_last(blocks, np.empty(blocks.shape))
        f = np.sqrt(_detrended_ss(profile, order, out=profile) / tau)
        f = np.sqrt((f * f).take(index).mean(axis=-1))
        return np.where(f > floor, f, 0.0)
    dev = blocks - blocks.mean(axis=-1, keepdims=True)
    cum = np.empty((tau, *dev.shape[:-1]))  # column k: block k's cumulative deviations
    _cumsum_last(dev, np.moveaxis(cum, 0, -1))
    s = np.sqrt(np.mean(np.square(dev, out=dev), axis=-1))
    varies = s > 0
    spread = np.where(varies, np.inf, -np.inf)  # -inf: never above a floor
    near = varies & (s <= 2 * floor.max())
    spread[near] = _ranges(blocks[near])  # a mask writes in place in any memory order
    rs = np.divide(cum.max(axis=0) - cum.min(axis=0), s, out=np.zeros_like(s), where=varies)
    keep = spread.take(index) > floor[:, None]
    rs = np.where(keep, rs.take(index), 0.0)
    return rs.sum(axis=-1) / np.maximum(np.count_nonzero(keep, axis=-1), 1)


def _block_layout(x: np.ndarray, starts: np.ndarray, window: int,
                  tau: int) -> tuple[np.ndarray, np.ndarray]:
    """The tau-blocks of the windows of ``x`` at ``starts`` as a view along its
    last axis, and index[i, k], the flat position of block k of window i in it.
    Of two layouts, the one that holds fewer blocks, window-major on a tie (so
    for one window): span, a block every g = gcd(step, tau) positions of the
    chunk, where every block starts; or window-major, windows x blocks."""
    step = int(starts[1] - starts[0]) if starts.size > 1 else 1
    g = math.gcd(step, tau)  # every block starts a multiple of g past starts[0]
    at = (starts - starts[0])[:, None] + tau * np.arange(window // tau)
    if at[-1, -1] // g + 1 < at.size:
        return sliding_window_view(x, tau)[starts[0] : starts[0] + at[-1, -1] + 1 : g], at // g
    rows = sliding_window_view(x, window)[starts[0] : starts[-1] + 1 : step, : at.shape[1] * tau]
    return rows.reshape(*at.shape, tau), np.arange(at.size).reshape(at.shape)


def _cumsum_last(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.cumsum(a, axis=-1, out=out)``, by one vector add per column from 16 tau**2
    values on (tau the row length), where that beats a cumsum along each short row.
    Either way each row adds in order, so the bits agree."""
    if a.size < 16 * a.shape[-1] ** 2:
        return np.cumsum(a, axis=-1, out=out)
    out[..., 0] = a[..., 0]
    for j in range(1, a.shape[-1]):
        np.add(out[..., j - 1], a[..., j], out=out[..., j])
    return out


def _ranges(rows: np.ndarray) -> np.ndarray:
    """``np.ptp(rows, axis=-1)`` of a stack, taken down the columns of a copy with
    the last axis first: numpy reduces a short row at a time but all columns at
    once. Max and min are exact in any order, so the bits are the same."""
    cols = np.moveaxis(rows, -1, 0).copy()
    return cols.max(axis=0) - cols.min(axis=0)


def hurst_rs(x: Sequence[float], ladder: Iterable[int] | None = None) -> HurstEstimate:
    """Hurst exponent from block-averaged R/S statistics over a size ladder.

    For each ladder size the series is cut into non-overlapping blocks, the
    rescaled range is averaged across the non-degenerate blocks, and the
    exponent is the slope of log(mean R/S) on log(size). Blocks whose range is
    rounding are skipped, sizes with none dropped; fewer than 3 survivors raise.
    The series is the one window of a :class:`RollingProtocol`, which checks it.
    """
    return _whole_series(x, METHOD_RS, ladder)


def dfa_profile(y: Sequence[float]) -> np.ndarray:
    """Integrated series: cumulative sum of deviations from the mean, along
    the last axis, so ``y`` may be one series or a stack of rows."""
    arr = np.asarray(y, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot build a profile from an empty series")
    profile = arr - arr.mean(axis=-1, keepdims=True)
    return np.cumsum(profile, axis=-1, out=profile)


def dfa_fluctuation(x_profile: Sequence[float], m: int, order: int = 1) -> float | np.ndarray:
    """Root mean square detrending residual at block size m, along the last
    axis, so ``x_profile`` may be one profile or a stack of rows.

    The profile is cut into floor(M/m) non-overlapping windows from the first
    point; each window gets an independent least-squares polynomial fit of the
    given order against the within-window index. Trailing points beyond the
    last complete window are excluded and the divisor is the number of
    covered points. ``x_profile`` is left as given.
    """
    prof = np.asarray(x_profile, dtype=float)
    if order < 0:
        raise ValueError("detrend order must be >= 0")
    if m < order + 2:
        raise ValueError(f"block size {m} too small for an order-{order} fit")
    if m > prof.shape[-1]:
        raise ValueError(f"block size {m} exceeds profile length {prof.shape[-1]}")
    segments = prof[..., : prof.shape[-1] // m * m].reshape(*prof.shape[:-1], -1, m)
    ss = _detrended_ss(segments, order, out=np.empty_like(segments))
    return np.sqrt(ss.sum(axis=-1) / (ss.shape[-1] * m))


def _detrended_ss(rows: np.ndarray, order: int, out: np.ndarray) -> np.ndarray:
    """Each row's residual sum of squares about its order-``order`` least-squares
    trend. Every coefficient is one contraction of ``rows`` (the first column is
    1.0), all taken before the residuals are written to ``out``, which may be ``rows``."""
    terms = _detrend(rows.shape[-1], order)
    coefficients = [np.einsum("...j,j->...", rows, weights)[..., None] for _, weights in terms]
    resid = np.subtract(rows, coefficients[0], out=out)
    for (column, _), c in zip(terms[1:], coefficients[1:]):
        resid -= c * column
    return np.einsum("...j,...j->...", resid, resid)


@lru_cache(maxsize=256)
def _detrend(m: int, order: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The (column, weights) pairs of an order-``order`` least-squares fit on
    ``m`` points, read-only: a block's fitted trend is the sum over pairs of
    its dot product with ``weights`` times ``column``."""
    # centred for conditioning; an exactly polynomial window still fits to rounding, not 0
    design = np.vander(np.arange(m) - (m - 1) / 2, order + 1, increasing=True)
    weights = np.linalg.pinv(design)
    design.flags.writeable = weights.flags.writeable = False
    return tuple(zip(design.T, weights))


def hurst_dfa(y: Sequence[float], ladder: Iterable[int] | None = None,
              order: int = 1) -> HurstEstimate:
    """Hurst exponent via detrended fluctuation analysis.

    At every ladder size, detrends the profile of each non-overlapping block
    (the one-window case of the rolling kernel), drops sizes whose fluctuation
    is rounding, and regresses log F on log m. Raises if fewer than 3 sizes
    survive. The series is the one window of a :class:`RollingProtocol`, which
    checks it with ``order``.
    """
    return _whole_series(y, METHOD_DFA, ladder, order)
