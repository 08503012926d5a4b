"""Metamorphic properties of the rolling estimators: relations between runs
that hold for any correct kernel, whatever its layout.

- A run on ``x[k*step:]`` gives rows ``k..`` of the run on ``x``.
- ``h`` and ``r²`` are unchanged when the returns become ``a*x + b``, for
  ``a`` in [1e-3, 1e3] and ``b/a`` in [-100, 100].
- A stale run of prices leaves every window that does not touch it unchanged.

Each holds to 1e-12 for DFA of orders 1 and 2 and for R/S.
"""

from datetime import date, timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from longmem.estimators import BlockLadder
from longmem.rolling import RollingProtocol, rolling_hurst
from longmem.series import PriceSeries, ReturnSeries, log_returns

LADDER = BlockLadder((4, 8, 16))
START = date(2000, 1, 3)
TOL = 1e-12

protocols = st.builds(
    lambda kind, window, step: RollingProtocol(
        window=window, step=step, estimator=kind[0], ladder=LADDER, detrend_order=kind[1]),
    st.sampled_from([("dfa", 1), ("dfa", 2), ("rs", 1)]),
    st.integers(32, 64),
    st.integers(1, 9),
)


def noise(seed, n):
    return np.random.default_rng(seed).standard_normal(n)


def run(values, proto, first_day=0):
    dates = tuple(START + timedelta(days=first_day + i) for i in range(len(values)))
    return rolling_hurst(ReturnSeries("x", dates, values), proto)


def assert_rows_equal(got, want, rows=slice(None)):
    """``got`` has the rows ``rows`` of ``want``."""
    np.testing.assert_array_equal(got.start_dates, want.start_dates[rows])
    np.testing.assert_array_equal(got.end_dates, want.end_dates[rows])
    np.testing.assert_allclose(got.h, want.h[rows], rtol=0, atol=TOL)
    np.testing.assert_allclose(got.r_squared, want.r_squared[rows], rtol=0, atol=TOL)


@given(proto=protocols, windows=st.integers(3, 20), k=st.integers(1, 19),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_run_on_a_suffix_gives_the_later_rows(proto, windows, k, seed):
    k = k % (windows - 1) + 1
    x = noise(seed, proto.window + proto.step * (windows - 1))
    full = run(x, proto)
    part = run(x[k * proto.step:], proto, first_day=k * proto.step)
    assert part.h.size == windows - k
    assert_rows_equal(part, full, slice(k, None))


@given(proto=protocols, windows=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
       log_a=st.floats(-3, 3), b_over_a=st.floats(-100, 100))
@settings(max_examples=60)
def test_affine_map_of_returns_keeps_h_and_r_squared(proto, windows, seed, log_a, b_over_a):
    x = noise(seed, proto.window + proto.step * (windows - 1))
    a = 10.0**log_a
    assert_rows_equal(run(a * x + a * b_over_a, proto), run(x, proto))


@given(proto=protocols, windows=st.integers(3, 20), seed=st.integers(0, 2**32 - 1),
       where=st.floats(0, 1), length=st.integers(1, 12))
@settings(max_examples=60)
def test_stale_prices_leave_untouched_windows_unchanged(proto, windows, seed, where, length):
    n = proto.window + proto.step * (windows - 1)
    prices = 100.0 * np.exp(np.cumsum(np.concatenate([[0.0], noise(seed, n)])) / 100.0)
    first = 1 + int(where * (n - length))  # prices[first:first+length] repeat prices[first-1]
    stale = prices.copy()
    stale[first:first + length] = prices[first - 1]
    dates = tuple(START + timedelta(days=i) for i in range(n + 1))
    clean = rolling_hurst(log_returns(PriceSeries("x", dates, prices)), proto)
    dirty = rolling_hurst(log_returns(PriceSeries("x", dates, stale)), proto)
    # the returns first-1 .. first+length-1 use a stale price
    offsets = np.arange(windows) * proto.step
    apart = (offsets + proto.window - 1 < first - 1) | (offsets > first + length - 1)
    np.testing.assert_array_equal(dirty.start_dates, clean.start_dates)
    np.testing.assert_allclose(dirty.h[apart], clean.h[apart], rtol=0, atol=TOL)
    np.testing.assert_allclose(dirty.r_squared[apart], clean.r_squared[apart], rtol=0, atol=TOL)
