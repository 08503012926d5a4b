"""Hurst exponent estimation via rescaled range and detrended fluctuation analysis.

Both estimators reduce a series to scaling points (block size, statistic) and
read the Hurst exponent off the slope of an ordinary least squares fit of
log(statistic) on log(block size).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

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
CHUNK = 1 << 14  # a chunk of windows copies about twice this many values


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

    @classmethod
    def default(cls) -> "BlockLadder":
        return cls(DEFAULT_LADDER_SIZES)

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
    whole-series estimate is the one-window case (``window`` the series length)."""

    window: int = 500
    step: int = 7
    estimator: str = METHOD_DFA
    ladder: BlockLadder = field(default_factory=BlockLadder.default)
    detrend_order: int = 1

    def __post_init__(self) -> None:
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
    pts = tuple([(int(m), float(v)) for m, v in points])
    return HurstEstimate(method, detrend_order, ladder, pts)


def _estimate_rows(values: np.ndarray, protocol: RollingProtocol) -> Iterator[HurstEstimate]:
    """One estimate per window of ``values`` under ``protocol``, whose checks
    have passed: ``window`` points starting every ``step`` points from the
    first. Each is fit to the ladder sizes where ``_shared_blocks`` finds a
    statistic above the window's floor, ``FLAT_SPREAD`` of its largest magnitude
    (one reduction over all windows, copying none). Each ladder size is one pass
    over all windows, in chunks sized for it, and fills one column of a windows
    x sizes matrix, read out a chunk of rows at a time. Each step is element-wise,
    a sum or contraction along a row or an exact max or min, so a window gives
    the same bits alone or among others, whatever the chunks or layout."""
    # every step past the series gives the first window alone; capped, it fits int64
    window, step, ladder = protocol.window, min(protocol.step, values.size), protocol.ladder
    order = protocol.detrend_order if protocol.estimator == METHOD_DFA else None
    windows = sliding_window_view(values, window)[::step]
    count = len(windows)
    floor = FLAT_SPREAD * np.maximum(-windows.min(axis=-1), windows.max(axis=-1))
    stats = np.empty((count, len(ladder)))
    for column, m in enumerate(ladder):
        blocks = window // m
        # caps: block values in the layout that holds fewer, the windows x blocks index
        per_size = max(1, min(2 * CHUNK // (m * min(blocks, step)), CHUNK // blocks))
        for first in range(0, count, per_size):
            last = min(count, first + per_size)
            stats[first:last, column] = _shared_blocks(
                values, step * np.arange(first, last), window, m, floor[first:last], order)
    per_read = CHUNK // len(ladder)  # rows read out as CHUNK Python floats at a time
    for first in range(0, count, per_read):
        for row in stats[first : first + per_read].tolist():
            points = [(m, s) for m, s in zip(ladder, row) if s > 0]
            yield estimate_from_points(points, method=protocol.estimator, ladder=ladder,
                                       detrend_order=order)


def _shared_blocks(x: np.ndarray, starts: np.ndarray, window: int, tau: int,
                   floor: np.ndarray, order: int | None = None) -> np.ndarray:
    """The statistic at size tau of each window of ``x`` that starts at
    ``starts`` (increasing, evenly spaced), over the blocks as ``_block_layout``
    reads them in place. With ``order``, DFA: each block's own profile is
    detrended (an order >= 1 fit removes the affine term by which it differs
    from the window's profile), and F, the root mean of the window's block
    residuals, counts above ``floor``. Without, R/S: the mean over blocks whose
    range exceeds ``floor`` and whose standard deviation stays positive; means,
    deviations and cumulative sums run along blocks, ranges down columns
    (``_ranges``), and a block with zero deviation gets range -inf, so one
    gather decides which blocks count. A window with nothing that counts gives 0."""
    blocks, index = _block_layout(x, starts, window, tau)
    if order is not None:
        # as rows, the shape whose bits are checked alone and in a stack
        f = dfa_fluctuation(np.cumsum(blocks, axis=-1).reshape(-1, tau), tau, order)
        f = np.sqrt((f * f).take(index).mean(axis=-1))
        return np.where(f > floor, f, 0.0)
    dev = blocks - blocks.mean(axis=-1, keepdims=True)
    s = np.sqrt(np.mean(dev**2, axis=-1))
    varies = s > 0
    spread = np.where(varies, _ranges(blocks), -np.inf)  # -inf: never above a floor
    cum = np.cumsum(dev, axis=-1, out=dev)
    rs = np.divide(_ranges(cum), s, out=np.zeros_like(s), where=varies)
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


def _ranges(rows: np.ndarray) -> np.ndarray:
    """``np.ptp(rows, axis=-1)`` of a stack, taken down the columns of a copy with
    the last axis first: numpy reduces a short row at a time but all columns at
    once. Max and min are exact in any order, so the bits are the same."""
    cols = np.moveaxis(rows, -1, 0).copy()
    return cols.max(axis=0) - cols.min(axis=0)


def hurst_rs(x: Sequence[float], ladder: BlockLadder | None = None) -> HurstEstimate:
    """Hurst exponent from block-averaged R/S statistics over a size ladder.

    For each ladder size the series is cut into non-overlapping blocks, the
    rescaled range is averaged across the non-degenerate blocks, and the
    exponent is the slope of log(mean R/S) on log(size). Blocks whose range is
    rounding are skipped, sizes with none dropped; fewer than 3 survivors raise.
    The series is the one window of a :class:`RollingProtocol`, which checks it.
    """
    values = np.asarray(x, dtype=float).reshape(-1)
    protocol = RollingProtocol(values.size, 1, METHOD_RS, ladder or BlockLadder.default())
    return next(_estimate_rows(values, protocol))


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
    covered points.
    """
    prof = np.asarray(x_profile, dtype=float)
    if order < 0:
        raise ValueError("detrend order must be >= 0")
    if m < order + 2:
        raise ValueError(f"block size {m} too small for an order-{order} fit")
    if m > prof.shape[-1]:
        raise ValueError(f"block size {m} exceeds profile length {prof.shape[-1]}")
    segments = prof[..., : prof.shape[-1] // m * m].reshape(*prof.shape[:-1], -1, m)
    # each coefficient is one contraction along a block's row; the first column is 1.0
    (_, weights), *rest = _detrend(m, order)
    resid = segments - np.einsum("...j,j->...", segments, weights)[..., None]
    for column, weights in rest:
        resid -= np.einsum("...j,j->...", segments, weights)[..., None] * column
    ss = np.einsum("...j,...j->...", resid, resid)
    return np.sqrt(ss.sum(axis=-1) / (ss.shape[-1] * m))


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


def hurst_dfa(y: Sequence[float], ladder: BlockLadder | None = None,
              order: int = 1) -> HurstEstimate:
    """Hurst exponent via detrended fluctuation analysis.

    At every ladder size, detrends the profile of each non-overlapping block
    (the one-window case of the rolling kernel), drops sizes whose fluctuation
    is rounding, and regresses log F on log m. Raises if fewer than 3 sizes
    survive. The series is the one window of a :class:`RollingProtocol`, which
    checks it with ``order``.
    """
    values = np.asarray(y, dtype=float).reshape(-1)
    protocol = RollingProtocol(values.size, 1, METHOD_DFA, ladder or BlockLadder.default(), order)
    return next(_estimate_rows(values, protocol))
