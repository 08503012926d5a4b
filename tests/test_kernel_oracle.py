"""The stacked-window estimator against the per-window paths it replaced.

The oracle below is the earlier code kept as a reference: each window was
sliced and estimated alone, DFA fitted each block with ``lstsq`` on the raw
index, and R/S averaged the values of the non-degenerate blocks only.

``reference_mean_rs`` is the R/S statistic the shared-block kernel replaced:
each window's blocks cut from its own row of a stack of windows. The kernel
must give the same bits as it, so those tests compare with ``==``. The
kernel takes a block's exact range of values with ``_ranges`` only for blocks
near the floor (standard deviation at most twice the chunk's largest floor),
down the columns of a transposed copy, which must give ``np.ptp``'s bits along
rows; ``margin_returns`` puts block deviations on both sides of the floor and
of twice the floor. It drops a block whose standard deviation is 0 by giving
it range -inf, which a series scaled until block squares underflow (s == 0
with a range above the floor) checks.
``reference_rolling_dfa`` is the stacked-row DFA it replaced: one profile per
window row, every block of every row refitted. There the kernel detrends each
block's own profile instead, which changes only rounding, so those tests
allow 1e-14 relative on the statistics, and 1e-14 on h and r² times what the
ladder's fit can scale it by.

``reference_fit_power_law`` is the numpy log-log fit that the plain-float
``fit_power_law`` replaced. The two differ only in rounding (numpy's ``log``
and its pairwise sums), so those tests allow 1e-14, scaled the same way.

``reference_rolling_dfa`` calls the live ``dfa_fluctuation``, so the frozen
``previous_dfa_fluctuation`` pins that function's arithmetic: the elementwise
products summed along each row that its row contractions (``einsum``)
replaced. They differ only in summation order, so those tests allow 1e-14
relative above rounding, and ask for the same bits of a row alone or in a
stack. ``previous_fit_power_law`` is ``fit_power_law`` before its size side
was cached, and must give the same bits.

``previous_shared_blocks`` is ``_shared_blocks`` before it read its blocks in
place: a map of the chunk's block starts, its cumulative sum as each block's
row and one gather of each distinct block. The kernel now reads them through
a span or a window-major view and must give the same bits.
"""

import math
import sys
import tracemalloc
import warnings
from datetime import date, timedelta
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from longmem import estimators
from longmem.estimators import (
    FLAT_SPREAD,
    BlockLadder,
    dfa_fluctuation,
    dfa_profile,
    estimate_from_points,
    fit_power_law,
    hurst_dfa,
    hurst_rs,
)
from longmem.pipeline import _rolling_csv, ingest_csv
from longmem.rolling import RollingProtocol, rolling_hurst, window_offsets
from longmem.series import ReturnSeries, log_returns
from longmem.synth import FgnSpec, generate_fgn


def oracle_fluctuation(profile, m, order):
    nwin = profile.size // m
    segments = profile[: nwin * m].reshape(nwin, m)
    design = np.vander(np.arange(m, dtype=float), order + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(design, segments.T, rcond=None)
    resid = design @ coef - segments.T
    return float(np.sqrt(np.mean(resid * resid)))


def oracle_block_rs_values(x, tau):
    nblocks = x.size // tau
    blocks = x[: nblocks * tau].reshape(nblocks, tau)
    dev = blocks - blocks.mean(axis=1, keepdims=True)
    s = np.sqrt(np.mean(dev**2, axis=1))
    spread = np.ptp(blocks, axis=1)
    keep = (s > 0) & (spread > 0)
    cum = np.cumsum(dev[keep], axis=1)
    rng = cum.max(axis=1) - cum.min(axis=1)
    return rng / s[keep]


def oracle_mean_rs(x, tau):
    vals = oracle_block_rs_values(x, tau)
    return float(vals.mean()) if vals.size else 0.0


def oracle_ladder_estimate(x, ladder, method, statistic, detrend_order=None):
    """Returns the kept ladder sizes and the estimate, or the error it raised."""
    arr = np.asarray(x, dtype=float)
    assert 2 * ladder.max_size <= arr.size, "the ladder must fit the series twice"
    lo, hi = float(arr.min()), float(arr.max())
    points = []
    if hi - lo > FLAT_SPREAD * max(-lo, hi):
        if method == "dfa":
            arr = np.cumsum(arr - arr.mean())
        points = [(m, s) for m in ladder if (s := statistic(arr, m)) > 0]
    sizes = [m for m, _ in points]
    try:
        return sizes, estimate_from_points(points, method=method, ladder=ladder,
                                           detrend_order=detrend_order)
    except ValueError as exc:
        return sizes, exc


def oracle_estimate(values, protocol):
    if protocol.estimator == "dfa":
        order = protocol.detrend_order
        return oracle_ladder_estimate(values, protocol.ladder, "dfa",
                                      partial(oracle_fluctuation, order=order), order)
    return oracle_ladder_estimate(values, protocol.ladder, "rs", oracle_mean_rs)


def make_returns(values, start=date(2000, 1, 3)):
    dates = tuple(start + timedelta(days=i) for i in range(len(values)))
    return ReturnSeries("x", dates, values)


def compare_with_oracle(monkeypatch, values, protocol):
    """Runs both paths; checks kept sizes per window, h and r² to 1e-12, and
    the first failure's message. Returns the kernel's result, or None."""
    returns = make_returns(values)
    kept = []
    fit = estimators.estimate_from_points

    def record(points, **kwargs):
        points = list(points)
        kept.append([m for m, _ in points])
        return fit(points, **kwargs)

    monkeypatch.setattr(estimators, "estimate_from_points", record)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result, failure = rolling_hurst(returns, protocol), None
        except ValueError as exc:
            result, failure = None, str(exc)
    monkeypatch.undo()

    last = protocol.window - 1
    expected_sizes, expected_failure, h, r2 = [], None, [], []
    for i, off in enumerate(window_offsets(values.size, protocol.window, protocol.step)):
        sizes, est = oracle_estimate(values[off : off + protocol.window], protocol)
        expected_sizes.append(sizes)
        if isinstance(est, ValueError):
            expected_failure = (f"window {i + 1} ({returns.dates[off]} to "
                                f"{returns.dates[off + last]}): {est}")
            break
        h.append(est.h)
        r2.append(est.r_squared)
    assert kept == expected_sizes
    assert failure == expected_failure
    if result is not None:
        assert np.max(np.abs(result.h - h)) <= 1e-12
        assert np.max(np.abs(result.r_squared - r2)) <= 1e-12
    return result


def octave_draw(draw):
    """The first of ``draw()``'s increasing sizes whose largest is at least
    twice the smallest, as ``RollingProtocol`` requires."""
    sizes = draw()
    while sizes[-1] < 2 * sizes[0]:
        sizes = draw()
    return sizes


def random_ladder(rng, window, order):
    """3-5 increasing sizes, none a power of two, within half the window,
    spanning at least an octave."""
    pool = [m for m in range(max(5, order + 2), window // 2 + 1) if m & (m - 1)]
    count = int(rng.integers(3, 6))
    return BlockLadder(octave_draw(
        lambda: sorted(int(m) for m in rng.choice(pool, count, replace=False))))


def random_sizes(rng):
    """3-12 increasing sizes from 4 to 250, spanning at least an octave."""
    count = int(rng.integers(3, 13))
    return octave_draw(
        lambda: sorted(int(m) for m in rng.choice(np.arange(4, 251), count, replace=False)))


@pytest.mark.parametrize("estimator", ["dfa", "rs"])
def test_random_shapes_match_oracle(monkeypatch, estimator):
    rng = np.random.default_rng(2016 if estimator == "dfa" else 1951)
    for _ in range(20):
        window = int(rng.integers(60, 701))
        step = int(rng.integers(1, 20))
        order = int(rng.integers(1, 3))
        protocol = RollingProtocol(window=window, step=step, estimator=estimator,
                                   ladder=random_ladder(rng, window, order),
                                   detrend_order=order)
        n = window + step * int(rng.integers(0, 60))
        scale = 10.0 ** rng.uniform(-3, 2)
        noise = rng.standard_t(3, n) if rng.random() < 0.5 else rng.standard_normal(n)
        values = scale * noise
        result = compare_with_oracle(monkeypatch, values, protocol)
        assert result is not None
        # a window gives the same bits alone as in the stack
        for i, off in enumerate(window_offsets(n, window, step)):
            sl = values[off : off + window]
            if estimator == "rs":
                alone = hurst_rs(sl, protocol.ladder)
            else:
                alone = hurst_dfa(sl, protocol.ladder, order)
            assert (alone.h, alone.r_squared) == (result.h[i], result.r_squared[i])


@pytest.mark.parametrize("estimator", ["dfa", "rs"])
def test_many_windows_cross_block_boundaries(monkeypatch, estimator):
    # 70-point windows at step 1: several blocks of rows
    values = np.random.default_rng(5).standard_normal(900)
    protocol = RollingProtocol(window=70, step=1, estimator=estimator,
                               ladder=BlockLadder((5, 11, 23, 35)))
    assert compare_with_oracle(monkeypatch, values, protocol) is not None


@pytest.mark.parametrize("estimator", ["dfa", "rs"])
def test_stale_runs_match_oracle(monkeypatch, estimator):
    # stale prices give zero returns: R/S skips the blocks inside a short run,
    # and a run that covers a whole window leaves that window flat. The runs
    # stay shorter than two 48-blocks: where every block of a size is stale,
    # DFA's fluctuation there is rounding, which the two paths round apart
    rng = np.random.default_rng(7)
    protocol = RollingProtocol(window=120, step=3, estimator=estimator,
                               ladder=BlockLadder((6, 12, 24, 48)))
    for length in (5, 30, 90):
        values = rng.standard_normal(400)
        values[150 : 150 + length] = 0.0
        assert compare_with_oracle(monkeypatch, values, protocol) is not None
    values = rng.standard_normal(400)
    values[150:300] = 0.0
    assert compare_with_oracle(monkeypatch, values, protocol) is None


def test_zero_variance_rs_blocks_match_oracle(monkeypatch):
    # every 6-block repeats one value, so size 6 keeps no block in any window
    # that starts on a multiple of 6, and a few blocks elsewhere
    values = np.repeat(np.random.default_rng(8).standard_normal(80), 6)
    for step in (6, 5):
        protocol = RollingProtocol(window=120, step=step, estimator="rs",
                                   ladder=BlockLadder((6, 12, 24, 48)))
        assert compare_with_oracle(monkeypatch, values, protocol) is not None


@pytest.mark.parametrize("estimator", ["dfa", "rs"])
def test_flat_windows_match_oracle(monkeypatch, estimator):
    # returns of a price compounding at a fixed rate vary only by rounding
    prices = 100.0 * 1.0002 ** np.arange(301)
    fixed_rate = np.log(prices[1:] / prices[:-1]) * 100.0
    noise = np.random.default_rng(9).standard_normal(200)
    protocol = RollingProtocol(window=100, step=7, estimator=estimator,
                               ladder=BlockLadder((5, 10, 20, 40)))
    for flat in (fixed_rate, np.full(150, 0.3)):
        values = np.concatenate([noise, flat])
        assert compare_with_oracle(monkeypatch, values, protocol) is None


def test_whole_series_estimates_match_oracle():
    rng = np.random.default_rng(10)
    ladder = BlockLadder((5, 9, 17, 33, 65))
    for n in (140, 1000, 5000):
        x = rng.standard_normal(n)
        sizes, oracle = oracle_ladder_estimate(x, ladder, "rs", oracle_mean_rs)
        est = hurst_rs(x, ladder)
        assert [m for m, _ in est.points] == sizes
        assert abs(est.h - oracle.h) <= 1e-12
        for order in (1, 2):
            sizes, oracle = oracle_ladder_estimate(
                x, ladder, "dfa", partial(oracle_fluctuation, order=order), order)
            est = hurst_dfa(x, ladder, order)
            assert [m for m, _ in est.points] == sizes
            assert abs(est.h - oracle.h) <= 1e-12
            assert abs(est.r_squared - oracle.r_squared) <= 1e-12


@pytest.mark.parametrize("estimator, order", [("dfa", 1), ("dfa", 2), ("rs", 1)])
def test_rolling_memory_stays_small(estimator, order):
    # 20,000 returns at the default protocol: 2,786 windows of 500
    returns = make_returns(np.random.default_rng(11).standard_normal(20_000))
    protocol = RollingProtocol(estimator=estimator, detrend_order=order)
    tracemalloc.start()
    try:
        result = rolling_hurst(returns, protocol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.h.size == 2786
    assert peak < 2 * 2**20


def test_rolling_memory_stays_small_at_long_shape():
    # 100,000 returns at the default protocol: 14,215 windows, one windows x
    # sizes matrix of statistics, filled first, then each row fit on its own
    returns = make_returns(np.random.default_rng(13).standard_normal(100_000))
    for estimator, order in [("dfa", 1), ("dfa", 2), ("rs", 1)]:
        tracemalloc.start()
        try:
            result = rolling_hurst(returns, RollingProtocol(estimator=estimator,
                                                            detrend_order=order))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.h.size == 14_215
        assert peak < 3 * 2**20, (estimator, order)


@pytest.mark.parametrize("estimator, order", [("dfa", 1), ("dfa", 2), ("rs", 1)])
def test_rolling_bits_do_not_depend_on_the_chunks(monkeypatch, paper_series,
                                                  estimator, order):
    # a small budget ends each ladder size's chunks at different windows
    protocol = RollingProtocol(estimator=estimator, detrend_order=order)
    stale = paper_series.copy()
    stale[1000:1600] = 0.0
    runs, matrices = [], []
    for chunk in (estimators.CHUNK, 1 << 9):
        monkeypatch.setattr(estimators, "CHUNK", chunk)
        with pytest.raises(ValueError) as failure:
            rolling_hurst(make_returns(stale), protocol)
        runs.append((rolling_hurst(make_returns(paper_series), protocol), str(failure.value)))
        matrices.append([estimators._ladder_stats(values, protocol)
                         for values in (paper_series, stale)])
    (default, failure), (small, small_failure) = runs
    assert np.array_equal(small.h, default.h)
    assert np.array_equal(small.r_squared, default.r_squared)
    for got, want in zip(*matrices):
        assert np.array_equal(got, want)
    stale_stats = matrices[0][1]
    assert stale_stats.shape == (default.h.size, len(protocol.ladder))
    assert not stale_stats[143].any()  # window 144, the one the failure names
    assert failure == small_failure == (
        "window 144 (2002-09-30 to 2004-02-11): insufficient scaling points: "
        "only 0 of 6 ladder sizes have a positive statistic")


def reference_mean_rs(x, tau, floor):
    """Mean R/S over the non-overlapping blocks of length tau along the last
    axis. A block counts when its range exceeds ``floor`` (one value per row)
    and its standard deviation stays positive; a row with none gives 0."""
    nblocks = x.shape[-1] // tau
    blocks = x[..., : nblocks * tau].reshape(*x.shape[:-1], nblocks, tau)
    dev = blocks - blocks.mean(axis=-1, keepdims=True)
    s = np.sqrt(np.mean(dev**2, axis=-1))
    keep = (s > 0) & (np.ptp(blocks, axis=-1) > np.expand_dims(floor, -1))
    cum = np.cumsum(dev, axis=-1, out=dev)
    rs = np.divide(np.ptp(cum, axis=-1), s, out=np.zeros_like(s), where=keep)
    return rs.sum(axis=-1) / np.maximum(keep.sum(axis=-1), 1)


def reference_rolling_rs(returns, protocol):
    """Rolling R/S h and r² through ``reference_mean_rs`` on stacks of window
    rows, or the message of the first window that fails."""
    window, ladder = protocol.window, protocol.ladder
    rows = sliding_window_view(returns.values, window)[:: protocol.step]
    per_block = max(1, estimators.CHUNK // window)
    h, r2 = [], []
    for first in range(0, len(rows), per_block):
        block = np.array(rows[first : first + per_block])
        floor = FLAT_SPREAD * np.maximum(-block.min(axis=-1), block.max(axis=-1))
        stats = np.stack([reference_mean_rs(block, m, floor) for m in ladder], axis=-1)
        for i, row in enumerate(stats.tolist(), first):
            points = [(m, s) for m, s in zip(ladder, row) if s > 0]
            try:
                est = estimate_from_points(points, method="rs", ladder=ladder)
            except ValueError as exc:
                off = i * protocol.step
                return (f"window {i + 1} ({returns.dates[off]} to "
                        f"{returns.dates[off + window - 1]}): {exc}")
            h.append(est.h)
            r2.append(est.r_squared)
    return np.array(h), np.array(r2)


def same_as_reference(values, protocol):
    """Asserts the kernel's rolling h and r² equal the reference's bit for bit,
    or that both fail with one message; returns whether the run succeeded."""
    returns = make_returns(values)
    expected = reference_rolling_rs(returns, protocol)
    try:
        result = rolling_hurst(returns, protocol)
    except ValueError as exc:
        assert str(exc) == expected
        return False
    assert not isinstance(expected, str), expected
    assert np.array_equal(result.h, expected[0])
    assert np.array_equal(result.r_squared, expected[1])
    return True


@pytest.fixture(scope="module")
def paper_series():
    return generate_fgn(FgnSpec(h=0.6, n=4203, seed=101))


@pytest.mark.parametrize("step", [1, 4, 7, 600])
def test_shared_blocks_equal_reference_at_paper_shape(paper_series, step):
    assert same_as_reference(paper_series, RollingProtocol(step=step, estimator="rs"))


@pytest.mark.parametrize("stale, succeeds", [(300, True), (600, False)])
def test_shared_blocks_equal_reference_with_stale_returns(paper_series, stale, succeeds):
    # a run longer than the 500-point window leaves a window with no block
    values = paper_series.copy()
    values[1000 : 1000 + stale] = 0.0
    assert same_as_reference(values, RollingProtocol(estimator="rs")) is succeeds


@pytest.mark.parametrize("step", [6, 7])
def test_shared_blocks_equal_reference_on_repeated_values(step):
    values = np.repeat(np.random.default_rng(12).standard_normal(700), 6)
    assert same_as_reference(values, RollingProtocol(step=step, estimator="rs"))


def test_shared_blocks_equal_reference_on_random_ladders(paper_series):
    rng = np.random.default_rng(1969)
    for _ in range(12):
        sizes = random_sizes(rng)
        window = int(rng.integers(2 * sizes[-1], 701))
        step = int(rng.integers(1, 30))
        protocol = RollingProtocol(window=window, step=step, estimator="rs",
                                   ladder=BlockLadder(sizes))
        assert same_as_reference(paper_series[:2000], protocol)


def blocks_without_deviation_above_the_floor(values, protocol):
    """The number of (window, block) pairs whose block's range exceeds the
    window's floor while its standard deviation is exactly 0."""
    rows = sliding_window_view(values, protocol.window)[:: protocol.step]
    floor = FLAT_SPREAD * np.maximum(-rows.min(axis=-1), rows.max(axis=-1))
    count = 0
    for m in protocol.ladder:
        blocks = rows[:, : protocol.window // m * m].reshape(len(rows), -1, m)
        dev = blocks - blocks.mean(axis=-1, keepdims=True)
        s = np.sqrt(np.mean(dev**2, axis=-1))
        count += np.count_nonzero((s == 0) & (np.ptp(blocks, axis=-1) > floor[:, None]))
    return count


@pytest.mark.parametrize("scale, succeeds", [(1e-161, True), (1e-162, False)])
def test_shared_blocks_equal_reference_where_block_squares_underflow(paper_series, scale,
                                                                     succeeds):
    # squares of returns near 1e-161 underflow, so some blocks have s == 0 while
    # their range clears the floor: the standard deviation alone must drop them
    values = paper_series * scale
    protocol = RollingProtocol(estimator="rs")
    if succeeds:
        assert blocks_without_deviation_above_the_floor(values, protocol) > 0
    assert same_as_reference(values, protocol) is succeeds


def same_bits_as_ptp(rows):
    ranges = estimators._ranges(rows)
    assert ranges.tobytes() == np.ptp(rows, axis=-1).tobytes()
    return ranges


def test_ranges_equal_ptp_along_rows():
    rng = np.random.default_rng(1951)
    for _ in range(60):
        shape = (int(rng.integers(1, 3001)), int(rng.integers(1, 251)))
        same_bits_as_ptp(rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300))
        same_bits_as_ptp(np.repeat(rng.standard_normal((shape[0], 1)), shape[1], axis=1))
        # only signed zeros, and zeros among values of both signs: never -0.0
        zeros = rng.choice([0.0, -0.0], size=shape)
        assert not np.signbit(same_bits_as_ptp(zeros)).any()
        mixed = np.where(rng.random(shape) < 0.5, zeros, rng.standard_normal(shape))
        assert not np.signbit(same_bits_as_ptp(mixed)).any()
    values = rng.standard_normal((400, 300))
    same_bits_as_ptp(values[::3, 7:250:2])
    values.flags.writeable = False
    same_bits_as_ptp(values)
    same_bits_as_ptp(sliding_window_view(values[0], 16)[::5])
    # a windows x blocks x size stack, as the window-major layout reads it
    same_bits_as_ptp(sliding_window_view(values[0], 64)[::7, :60].reshape(-1, 4, 15))


def margin_returns(rng, kind, n):
    """``n`` returns whose block standard deviations straddle the floor and twice
    the floor: a base that varies only by rounding (fixed-rate accrual, 1.5 plus
    0-3 ulp, or a constant 1.5) plus noise in stretches of 4-40 points, each
    with sd 0, 0.5-4 times the floor (log-uniform), or 1e-3 of the level."""
    if kind == "accrual":
        prices = 100.0 * 1.0002 ** np.arange(n + 1)
        base = np.log(prices[1:] / prices[:-1]) * 100.0
    else:
        base = np.full(n, 1.5)
        if kind == "ulps":
            base += rng.integers(0, 4, n) * np.spacing(1.5)
    floor = FLAT_SPREAD * np.abs(base).max()
    sd, first = np.empty(n), 0
    while first < n:
        last = first + int(rng.integers(4, 41))
        sd[first:last] = rng.choice([0.0, floor * 2.0 ** rng.uniform(-1, 2), 1e-3 * 1.5],
                                    p=[0.2, 0.7, 0.1])
        first = last
    return base + sd * rng.standard_normal(n)


@pytest.mark.parametrize("kind", ["accrual", "ulps", "noise"])
def test_rs_blocks_near_the_floor_match_reference(monkeypatch, kind):
    """A block's range is at least its sd, so the kernel takes the exact range
    only of blocks whose sd is at most twice the chunk's largest floor. Both
    layouts (a step of 7 and a step that is a multiple of the size), chunks
    below and above 16 size blocks (where the cumulative sums switch from a
    cumsum per row to column adds), and a rolling run at two chunk budgets."""
    rng = np.random.default_rng(["accrual", "ulps", "noise"].index(kind) + 1969)
    window, seen = 500, set()
    margin = {"near, kept": 0, "near, dropped": 0, "far": 0}
    for step, tau in ((7, 8), (7, 64), (16, 8), (64, 64)):
        for count in (1, 3, 40, 160):
            values = margin_returns(rng, kind, window + step * (count - 1))
            starts = step * np.arange(count)
            rows = sliding_window_view(values, window)[starts]
            floor = FLAT_SPREAD * np.maximum(-rows.min(axis=-1), rows.max(axis=-1))
            got = estimators._shared_blocks(values, starts, window, tau, floor)
            assert got.tobytes() == reference_mean_rs(rows, tau, floor).tobytes(), (
                step, tau, count)
            blocks = estimators._block_layout(values, starts, window, tau)[0]
            seen.add((blocks.ndim, blocks.size >= 16 * tau * tau))
            cut = rows[:, : window // tau * tau].reshape(count, -1, tau)
            s, spread = cut.std(axis=-1), np.ptp(cut, axis=-1)
            near = (s > 0) & (s <= 2 * floor[:, None])
            margin["near, kept"] += np.count_nonzero(near & (spread > floor[:, None]))
            margin["near, dropped"] += np.count_nonzero(near & (spread <= floor[:, None]))
            margin["far"] += np.count_nonzero(s > 2 * floor[:, None])
    assert seen == {(2, False), (2, True), (3, False), (3, True)}
    assert min(margin.values()) > 0, margin
    values = margin_returns(rng, kind, 4203)
    for chunk in (estimators.CHUNK, 1 << 9):
        monkeypatch.setattr(estimators, "CHUNK", chunk)
        same_as_reference(values, RollingProtocol(estimator="rs"))


def reference_rolling_dfa(returns, protocol):
    """Rolling DFA on stacks of ``CHUNK // window`` window rows: one profile per
    row, then ``dfa_fluctuation`` per size, kept above the row's floor. Returns
    the kept points of each window, then h and r², or then the message of the
    first window that fails."""
    window, ladder, order = protocol.window, protocol.ladder, protocol.detrend_order
    rows = sliding_window_view(returns.values, window)[:: protocol.step]
    per_block = max(1, estimators.CHUNK // window)
    kept, h, r2 = [], [], []
    for first in range(0, len(rows), per_block):
        block = np.array(rows[first : first + per_block])
        floor = FLAT_SPREAD * np.maximum(-block.min(axis=-1), block.max(axis=-1))
        profile = dfa_profile(block)
        stats = np.stack([dfa_fluctuation(profile, m, order) for m in ladder], axis=-1)
        for i, (row, limit) in enumerate(zip(stats.tolist(), floor.tolist()), first):
            points = [(m, s) for m, s in zip(ladder, row) if s > limit]
            kept.append(points)
            try:
                est = estimate_from_points(points, method="dfa", ladder=ladder,
                                           detrend_order=order)
            except ValueError as exc:
                off = i * protocol.step
                return kept, (f"window {i + 1} ({returns.dates[off]} to "
                              f"{returns.dates[off + window - 1]}): {exc}")
            h.append(est.h)
            r2.append(est.r_squared)
    return kept, np.array(h), np.array(r2)


def fit_gain(ladder):
    """The most a slope fit on the ladder's log sizes can scale an error that
    is at most 1 in every log statistic: sum |x - mean| / sum (x - mean)²."""
    x = np.log(ladder.sizes)
    return float(np.sum(np.abs(x - x.mean())) / np.sum((x - x.mean()) ** 2))


def close_to_reference_dfa(monkeypatch, values, protocol):
    """Asserts the kernel keeps the reference's sizes in every window with the
    same statistics to 1e-14 relative, and fails with its message or gives its
    h and r² to 1e-14. Returns whether the run succeeded.

    Clustered sizes let the fit scale the rounding in F up to ``fit_gain``
    times, so h and r² get that much more room."""
    returns = make_returns(values)
    expected_kept, *expected = reference_rolling_dfa(returns, protocol)
    kept = []
    fit = estimators.estimate_from_points

    def record(points, **kwargs):
        points = list(points)
        kept.append(points)
        return fit(points, **kwargs)

    monkeypatch.setattr(estimators, "estimate_from_points", record)
    try:
        result = rolling_hurst(returns, protocol)
    except ValueError as exc:
        result = None
        assert [str(exc)] == expected
    finally:
        monkeypatch.undo()
    assert [[m for m, _ in p] for p in kept] == [[m for m, _ in p] for p in expected_kept]
    for got, want in zip(kept, expected_kept):
        assert np.allclose([s for _, s in got], [s for _, s in want], rtol=1e-14, atol=0)
    if result is None:
        return False
    assert len(expected) == 2, expected[0]
    tolerance = 1e-14 * max(1.0, fit_gain(protocol.ladder))
    assert np.max(np.abs(result.h - expected[0])) <= tolerance
    assert np.max(np.abs(result.r_squared - expected[1])) <= tolerance
    return True


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("step", [1, 7, 600])
def test_shared_dfa_blocks_match_reference_at_paper_shape(monkeypatch, paper_series,
                                                          step, order):
    protocol = RollingProtocol(step=step, detrend_order=order)
    assert close_to_reference_dfa(monkeypatch, paper_series, protocol)


@pytest.mark.parametrize("stale, succeeds", [(300, True), (600, False)])
def test_shared_dfa_blocks_match_reference_with_stale_returns(monkeypatch, paper_series,
                                                              stale, succeeds):
    values = paper_series.copy()
    values[1000 : 1000 + stale] = 0.0
    assert close_to_reference_dfa(monkeypatch, values, RollingProtocol()) is succeeds


def test_shared_dfa_blocks_match_reference_on_accrual(monkeypatch):
    # the golden accrual input: windows 44-53 hold three 128-blocks of accrual
    prices = ingest_csv(Path(__file__).parent / "golden" / "inputs" / "accrual.csv")
    values = log_returns(prices).values
    assert close_to_reference_dfa(monkeypatch, values, RollingProtocol())


def test_shared_dfa_blocks_match_reference_on_random_ladders(monkeypatch, paper_series):
    rng = np.random.default_rng(1994)
    for _ in range(12):
        sizes = random_sizes(rng)
        window = int(rng.integers(2 * sizes[-1], 701))
        step = int(rng.integers(1, 30))
        protocol = RollingProtocol(window=window, step=step, ladder=BlockLadder(sizes),
                                   detrend_order=int(rng.integers(1, 3)))
        assert close_to_reference_dfa(monkeypatch, paper_series[:2000], protocol)


def reference_fit_power_law(points):
    """The numpy fit that ``fit_power_law`` replaced, kept as it was."""
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


def test_fit_matches_reference_on_random_ladders():
    rng = np.random.default_rng(1951)
    for _ in range(200):
        count = int(rng.integers(3, 13))
        ladder = BlockLadder(sorted(int(m) for m in
                                    rng.choice(np.arange(4, 251), count, replace=False)))
        h, scale = rng.uniform(0.1, 1.2), rng.uniform(0.01, 100.0)
        noise = np.exp(rng.normal(0.0, 0.05, count))
        points = [(m, float(scale * m**h * e)) for m, e in zip(ladder, noise)]
        got, want = fit_power_law(points), reference_fit_power_law(points)
        assert all(type(v) is float for v in got)
        tolerance = 1e-14 * max(1.0, fit_gain(ladder))
        assert np.max(np.abs(np.subtract(got, want))) <= tolerance, (points, got, want)


@pytest.mark.parametrize("estimator, order", [("dfa", 1), ("dfa", 2), ("rs", 1)])
def test_rolling_rows_unchanged_by_the_scalar_fit(monkeypatch, paper_series,
                                                  estimator, order):
    returns = make_returns(paper_series)
    protocol = RollingProtocol(estimator=estimator, detrend_order=order)
    result = rolling_hurst(returns, protocol)
    with monkeypatch.context() as patch:
        patch.setattr(estimators, "fit_power_law", reference_fit_power_law)
        expected = rolling_hurst(returns, protocol)
    assert _rolling_csv(result, len(returns)) == _rolling_csv(expected, len(returns))
    assert np.max(np.abs(result.h - expected.h)) <= 1e-14
    assert np.max(np.abs(result.r_squared - expected.r_squared)) <= 1e-14


@pytest.mark.parametrize("points", [
    [(4, 1.0)],
    [(4, 1.0), (8, 0.0), (16, 2.0)],
    [(8, 1.0), (8, 2.0), (8, 3.0)],
])
def test_fit_errors_match_reference(points):
    with pytest.raises(ValueError) as want:
        reference_fit_power_law(points)
    with pytest.raises(ValueError) as got:
        fit_power_law(points)
    assert str(got.value) == str(want.value)


def previous_dfa_fluctuation(x_profile, m, order=1):
    """``dfa_fluctuation``'s arithmetic before its row contractions, kept as it
    was: a full copy of the blocks, each coefficient as a product summed along
    the row, then the mean of the squared residuals of all covered points."""
    prof = np.asarray(x_profile, dtype=float)
    segments = prof[..., : prof.shape[-1] // m * m].reshape(*prof.shape[:-1], -1, m)
    resid = np.array(segments)
    for column, weights in estimators._detrend(m, order):
        resid -= (segments * weights).sum(axis=-1, keepdims=True) * column
    resid *= resid
    return np.sqrt(resid.reshape(*prof.shape[:-1], -1).mean(axis=-1))


def random_profiles(rng, m):
    """Stacks of 1-4 profiles of 1-3 blocks of ``m`` plus a tail, one kind each:
    noise, stale runs (some rows wholly stale), accrual (constant returns) or
    an exactly linear ramp of small integers."""
    rows, length = int(rng.integers(1, 5)), m * int(rng.integers(1, 4)) + int(rng.integers(0, m))
    kind = rng.integers(4)
    if kind == 3:
        return np.arange(length) * float(rng.integers(-3, 4)) + rng.integers(-9, 10, (rows, 1))
    returns = rng.standard_normal((rows, length)) * 10.0 ** rng.uniform(-3, 3)
    if kind == 1:
        returns[:, rng.random(length) < 0.8] = 0.0
        returns[rng.random(rows) < 0.3] = 0.0
    elif kind == 2:
        returns[:] = rng.uniform(0.001, 0.1)
    return dfa_profile(returns) if rng.random() < 0.5 else np.cumsum(returns, axis=-1)


def test_dfa_fluctuation_matches_its_previous_arithmetic():
    """To 1e-14 relative where the fluctuation is above rounding (the kernel's
    ``FLAT_SPREAD`` of the profile's magnitude); below it, as for accrual or a
    ramp, within 1e-14 of that magnitude, where the kernel's floor drops it
    either way. Such a rounding-level value is exactly 0 in either arithmetic
    only by the luck of its summation order, so an exact 0 is required only of
    a zero profile, a wholly stale one, where both give 0."""
    rng = np.random.default_rng(1994)
    flat_rows = 0
    for _ in range(600):
        m = int(rng.integers(4, 251))
        order = int(rng.integers(1, min(3, m - 2) + 1))
        profile = random_profiles(rng, m)
        got, want = dfa_fluctuation(profile, m, order), previous_dfa_fluctuation(profile, m, order)
        scale = np.abs(profile).max(axis=-1)
        counted = want > FLAT_SPREAD * scale
        assert np.all(np.abs(got - want) <= 1e-14 * np.where(counted, want, scale)), (m, order)
        assert np.all(got[scale == 0] == 0) and np.all(want[scale == 0] == 0), (m, order)
        flat_rows += int(np.sum(scale == 0))
    assert flat_rows > 0


def test_dfa_fluctuation_rows_do_not_depend_on_their_neighbours():
    """A row alone, inside a stack and from a copy offset by one element (so
    another SIMD alignment) gives the same bits."""
    rng = np.random.default_rng(1685)
    for _ in range(200):
        m = int(rng.integers(4, 251))
        order = int(rng.integers(1, min(3, m - 2) + 1))
        stack = random_profiles(rng, m)
        stacked = dfa_fluctuation(stack, m, order)
        for row, value in zip(stack, stacked.tolist()):
            shifted = np.empty(row.size + 1)
            shifted[1:] = row
            assert dfa_fluctuation(row.copy(), m, order) == value
            assert dfa_fluctuation(shifted[1:], m, order) == value


def test_dfa_fluctuation_leaves_its_argument_as_given():
    """One profile and a stack, writable and read-only: the argument keeps its
    bytes, and the result is the bits a copy of it gives."""
    rng = np.random.default_rng(1949)
    for _ in range(100):
        m = int(rng.integers(4, 251))
        order = int(rng.integers(1, min(3, m - 2) + 1))
        stack = random_profiles(rng, m)
        for profile in (stack, stack[-1]):
            frozen = profile.copy()
            frozen.flags.writeable = False
            before = profile.tobytes()
            want = dfa_fluctuation(profile.copy(), m, order).tobytes()
            assert dfa_fluctuation(profile, m, order).tobytes() == want
            assert dfa_fluctuation(frozen, m, order).tobytes() == want
            assert profile.tobytes() == before == frozen.tobytes()


def test_cumsum_last_gives_the_bits_of_a_cumsum():
    """Span (2-d) and window-major (3-d) block views, into a C-ordered buffer, as
    DFA fills it, and down the columns of a moved-axis one, as R/S does, with
    chunks on both sides of the 16 tau**2 values from which columns are added."""
    rng = np.random.default_rng(1953)
    seen = set()
    for _ in range(200):
        tau = int(rng.integers(4, 129))
        window, step = int(rng.integers(2 * tau, 1001)), int(rng.integers(1, 40))
        count = int(rng.integers(1, 150))
        values = rng.standard_normal(window + step * count) * 10.0 ** rng.uniform(-3, 3)
        blocks, _ = estimators._block_layout(values, step * np.arange(count), window, tau)
        want = np.cumsum(blocks, axis=-1).tobytes()
        rows = np.empty(blocks.shape)
        assert estimators._cumsum_last(blocks, rows) is rows
        assert rows.tobytes() == want
        cols = np.moveaxis(np.empty((tau, *blocks.shape[:-1])), 0, -1)
        estimators._cumsum_last(blocks, cols)
        assert cols.tobytes() == want, (tau, window, step, count)
        seen.add((blocks.ndim, blocks.size >= 16 * tau * tau))
    assert seen == {(2, False), (2, True), (3, False), (3, True)}


def previous_fit_power_law(points):
    """``fit_power_law`` before its size side was cached, kept as it was."""
    pts = list(points)
    n = len(pts)
    if n < 2:
        raise ValueError("power-law fit needs at least 2 points")
    if any(m <= 0 or v <= 0 for m, v in pts):
        raise ValueError("power-law fit needs positive sizes and values")
    x = [math.log(m) for m, _ in pts]
    y = [math.log(v) for _, v in pts]
    xm, ym = sum(x) / n, sum(y) / n
    dx = [a - xm for a in x]
    dy = [b - ym for b in y]
    sxx = sum([d * d for d in dx])
    if sxx == 0:
        raise ValueError("power-law fit needs at least 2 distinct sizes")
    slope = sum([a * b for a, b in zip(dx, dy)]) / sxx
    intercept = ym - slope * xm
    res = [b - (intercept + slope * a) for a, b in zip(x, y)]
    ss_res = sum([r * r for r in res])
    ss_tot = sum([d * d for d in dy])
    flat = (n * 4 * sys.float_info.epsilon * max(map(abs, y))) ** 2
    r2 = 1.0 if ss_tot <= flat else 1.0 - ss_res / ss_tot
    return slope, intercept, min(1.0, max(0.0, r2))


def test_fit_with_cached_sizes_gives_the_previous_bits():
    """Ladders of 3-12 sizes, interleaved so the cache holds other ladders
    between two calls on one, with int and float sizes of equal value."""
    rng = np.random.default_rng(1951)
    ladders = [random_sizes(rng) for _ in range(40)]
    for i in rng.integers(0, len(ladders), 600).tolist():
        sizes = ladders[i]
        h, scale = rng.uniform(0.1, 1.2), rng.uniform(0.01, 100.0)
        values = [float(scale * m**h * e) for m, e in
                  zip(sizes, np.exp(rng.normal(0.0, 0.05, len(sizes))))]
        want = previous_fit_power_law(zip(sizes, values))
        assert fit_power_law(zip(sizes, values)) == want
        assert fit_power_law(zip(map(float, sizes), values)) == want
    assert estimators._size_side.cache_info().hits >= 1000


def test_failed_fits_leave_the_cached_sizes_intact():
    good = [(4, 1.0), (8, 1.6), (16, 2.5)]
    want = previous_fit_power_law(good)
    for bad, cause in [
        ([(4, 1.0), (8, 0.0), (16, 2.0)], "positive sizes and values"),
        ([(0, 1.0), (8, 1.6), (16, 2.5)], "positive sizes and values"),
        ([(-4, 1.0), (8, 1.6), (16, 2.5)], "positive sizes and values"),
        ([(8, 1.0), (8, 2.0), (8, 3.0)], "at least 2 distinct sizes"),
        ([(8.0, 1.0), (8, 2.0)], "at least 2 distinct sizes"),
    ]:
        for _ in range(2):  # a failure is not cached as a result
            with pytest.raises(ValueError, match=f"^power-law fit needs {cause}$"):
                fit_power_law(bad)
            assert fit_power_law(good) == want


def previous_shared_blocks(x, starts, window, tau, floor, order=None):
    """``_shared_blocks`` before its blocks were read in place, kept as it was:
    a map of the chunk's block starts, its cumulative sum as each block's row,
    and a gather of each distinct block once."""
    at = (starts - starts[0])[:, None] + tau * np.arange(window // tau)
    present = np.zeros(at[-1, -1] + 1, dtype=bool)
    present[at] = True
    index = np.cumsum(present).take(at) - 1
    blocks = sliding_window_view(x, tau)[starts[0] + np.flatnonzero(present)]
    if order is not None:
        f = dfa_fluctuation(np.cumsum(blocks, axis=-1, out=blocks), tau, order)
        f = np.sqrt((f * f).take(index).mean(axis=-1))
        return np.where(f > floor, f, 0.0)
    dev = blocks - blocks.mean(axis=-1, keepdims=True)
    s = np.sqrt(np.mean(dev**2, axis=-1))
    varies = s > 0
    spread = np.where(varies, estimators._ranges(blocks), -np.inf)
    cum = np.cumsum(dev, axis=-1, out=dev)
    rs = np.divide(estimators._ranges(cum), s, out=np.zeros_like(s), where=varies)
    keep = spread.take(index) > floor[:, None]
    rs = np.where(keep, rs.take(index), 0.0)
    return rs.sum(axis=-1) / np.maximum(np.count_nonzero(keep, axis=-1), 1)


def test_shared_blocks_give_the_previous_bits():
    """Seeded windows 60-1000 and steps 1-40, with steps that are multiples of
    the block size and steps past the window; chunks of 1-150 windows; DFA of
    orders 1-3 and R/S; stale stretches, some longer than a window, so some
    statistics fall to the floor."""
    rng = np.random.default_rng(1951)
    layouts = {"span": 0, "window-major": 0}
    floored = 0
    for _ in range(300):
        window = int(rng.integers(60, 1001))
        tau = int(rng.integers(4, window // 2 + 1))
        kind = rng.integers(4)
        step = (tau * int(rng.integers(1, 4)) if kind == 0 else
                int(rng.integers(window, window + 40)) if kind == 1 else
                int(rng.integers(1, 41)))
        count = 1 if rng.random() < 0.2 else int(rng.integers(2, 151))
        values = rng.standard_normal(window + step * (count + 5)) * 10.0 ** rng.uniform(-3, 3)
        if rng.random() < 0.5:
            stale = min(int(rng.integers(tau, 2 * window)), values.size)
            first = int(rng.integers(0, values.size - stale + 1))
            values[first : first + stale] = 0.0
        starts = step * (int(rng.integers(0, 6)) + np.arange(count))
        rows = np.array(sliding_window_view(values, window)[starts])
        floor = FLAT_SPREAD * np.maximum(-rows.min(axis=-1), rows.max(axis=-1))
        blocks, index = estimators._block_layout(values, starts, window, tau)
        layouts["span" if blocks.ndim == 2 else "window-major"] += 1
        assert count > 1 or blocks.ndim == 3  # one window is always window-major
        for order in (None, 1, 2, 3):
            if order is not None and tau < order + 2:
                continue
            got = estimators._shared_blocks(values, starts, window, tau, floor, order)
            want = previous_shared_blocks(values, starts, window, tau, floor, order)
            assert got.tobytes() == want.tobytes(), (window, step, tau, count, order)
            floored += int(np.count_nonzero(got == 0))
    assert min(layouts.values()) > 0 and floored > 0, (layouts, floored)


def test_block_layout_holds_few_blocks_twice(monkeypatch):
    """Under the chunk caps of a rolling run, the blocks ``_block_layout`` holds
    stay within 1.5 times the distinct blocks of the chunk, over windows
    60-1000, steps 1-39 and sizes 4-250 (the span layout alone computes 3.5
    times as many at window 998, step 3, size 200)."""
    rng = np.random.default_rng(1685)
    worst = 0.0

    def layout(x, starts, window, tau, floor, order=None):
        nonlocal worst
        blocks, index = estimators._block_layout(x, starts, window, tau)
        held = blocks.size // tau
        distinct = np.unique(starts[:, None] + tau * np.arange(window // tau)).size
        assert np.unique(index).size >= distinct
        assert held <= 1.5 * distinct, (window, starts[:2], tau, len(starts))
        worst = max(worst, held / distinct)
        return np.ones(len(starts))

    monkeypatch.setattr(estimators, "_shared_blocks", layout)
    cases = [(998, 3, (50, 100, 200))] + [
        (window := int(rng.integers(60, 1001)), int(rng.integers(1, 40)),
         octave_draw(lambda: sorted(int(m) for m in rng.choice(
             np.arange(4, min(250, window // 2) + 1), 4, replace=False))))
        for _ in range(150)]
    for window, step, sizes in cases:
        protocol = RollingProtocol(window=window, step=step, ladder=BlockLadder(sizes))
        values = np.zeros(window + step * int(rng.integers(0, 400)))
        estimators._ladder_stats(values, protocol)
    assert 1.0 <= worst <= 1.5
