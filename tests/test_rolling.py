import re
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longmem import estimators
from longmem.estimators import BlockLadder, hurst_dfa, hurst_rs
from longmem.rolling import (
    RollingProtocol,
    rolling_hurst,
    split_at,
    window_offsets,
)
from longmem.series import ReturnSeries
from longmem.synth import generate_gaussian

SMALL_LADDER = BlockLadder((4, 8, 16))


def make_returns(values, label="x", start=date(2000, 1, 3)):
    dates = tuple(start + timedelta(days=i) for i in range(len(values)))
    return ReturnSeries(label, dates, tuple(float(v) for v in values))


def small_protocol(window=40, step=5, estimator="rs"):
    return RollingProtocol(
        window=window, step=step, estimator=estimator, ladder=SMALL_LADDER
    )


class TestProtocol:
    def test_window_must_cover_twice_max_ladder(self):
        with pytest.raises(ValueError, match="twice the largest"):
            RollingProtocol(window=31, step=1, ladder=SMALL_LADDER)

    def test_step_positive(self):
        with pytest.raises(ValueError, match="step"):
            RollingProtocol(window=40, step=0, ladder=SMALL_LADDER)

    def test_unknown_estimator(self):
        with pytest.raises(ValueError, match="estimator"):
            RollingProtocol(window=40, step=1, estimator="wavelet", ladder=SMALL_LADDER)

    def test_dfa_ladder_must_leave_room_for_the_detrend_order(self):
        with pytest.raises(ValueError, match="^block size 4 too small for an order-3 fit$"):
            RollingProtocol(window=40, step=1, ladder=SMALL_LADDER, detrend_order=3)
        RollingProtocol(window=40, step=1, ladder=SMALL_LADDER, detrend_order=2)
        RollingProtocol(window=40, step=1, estimator="rs", ladder=SMALL_LADDER,
                        detrend_order=3)

    def test_ladder_must_span_an_octave(self):
        with pytest.raises(ValueError, match=re.escape(
                "ladder 5,7,9 spans 9/5 = 1.80, less than the one octave a slope needs")):
            RollingProtocol(window=40, step=1, ladder=BlockLadder((5, 7, 9)))
        RollingProtocol(window=40, step=1, ladder=BlockLadder((5, 7, 10)))

    def test_defaults_are_reference_protocol(self):
        proto = RollingProtocol()
        assert proto.window == 500
        assert proto.step == 7
        assert proto.estimator == "dfa"
        assert proto.ladder.sizes == (4, 8, 16, 32, 64, 128)
        assert proto.detrend_order == 1

    @pytest.mark.parametrize("ladder", [(4, 8, 16), [4, 8, 16], SMALL_LADDER, None])
    def test_ladder_is_held_as_a_block_ladder(self, ladder):
        proto = RollingProtocol(ladder=ladder)
        assert isinstance(proto.ladder, BlockLadder)
        assert proto.ladder == (BlockLadder((4, 8, 16, 32, 64, 128)) if ladder is None
                                else SMALL_LADDER)

    def test_empty_ladder_is_refused_by_its_own_rule(self):
        with pytest.raises(ValueError, match="^ladder needs at least 3 sizes$"):
            RollingProtocol(ladder=())

    def test_protocol_dict_states_the_five_settings(self):
        assert RollingProtocol().protocol_dict() == {
            "estimator": "dfa", "window": 500, "step": 7,
            "ladder": [4, 8, 16, 32, 64, 128], "detrend_order": 1}
        assert RollingProtocol(40, 3, "rs", (4, 8, 16), 2).protocol_dict() == {
            "estimator": "rs", "window": 40, "step": 3, "ladder": [4, 8, 16],
            "detrend_order": 2}


class TestWindowCount:
    def test_reference_shape(self):
        # 4203 returns, window 500, step 7: floor(3703/7) + 1 = 530
        assert len(window_offsets(4203, 500, 7)) == 530

    def test_exact_fit_single_window(self):
        assert len(window_offsets(500, 500, 7)) == 1

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="shorter than window"):
            len(window_offsets(499, 500, 7))

    @given(
        n=st.integers(min_value=1, max_value=100_000),
        window=st.integers(min_value=1, max_value=100_000),
        step=st.integers(min_value=1, max_value=5_000),
    )
    @settings(max_examples=300, deadline=None)
    def test_count_law(self, n, window, step):
        if n < window:
            with pytest.raises(ValueError):
                window_offsets(n, window, step)
            return
        offsets = list(window_offsets(n, window, step))
        assert len(offsets) == (n - window) // step + 1
        assert offsets[0] == 0
        assert all(b - a == step for a, b in zip(offsets, offsets[1:]))
        assert offsets[-1] + window <= n


class TestRollingHurst:
    def test_counts_and_dates(self):
        rets = make_returns(generate_gaussian(100, seed=1))
        result = rolling_hurst(rets, small_protocol(window=40, step=10))
        count = (100 - 40) // 10 + 1
        assert result.h.size == result.r_squared.size == count
        assert len(result.start_dates) == len(result.end_dates) == count
        assert result.start_dates[0] == rets.dates[0]
        assert result.end_dates[0] == rets.dates[39]
        assert result.start_dates[1] == rets.dates[10]

    def test_date_columns_are_read_only_views_in_days(self):
        rets = make_returns(generate_gaussian(100, seed=1))
        result = rolling_hurst(rets, small_protocol(window=40, step=10))
        for column in (result.start_dates, result.end_dates):
            assert column.dtype == np.dtype("datetime64[D]")
            assert np.shares_memory(column, rets.dates)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[-1]

    def test_single_window_boundary(self):
        rets = make_returns(generate_gaussian(40, seed=2))
        result = rolling_hurst(rets, small_protocol(window=40, step=7))
        assert result.h.size == 1

    @pytest.mark.parametrize("estimator", ["dfa", "rs"])
    def test_step_past_the_int64_range_gives_the_first_window(self, estimator):
        # the kernel caps the step at the series length, so the stride fits int64
        rets = make_returns(generate_gaussian(100, seed=10))
        huge = rolling_hurst(rets, small_protocol(step=2**63, estimator=estimator))
        whole = rolling_hurst(rets, small_protocol(step=100, estimator=estimator))
        assert huge.h.size == 1
        for column in ("start_dates", "end_dates", "h", "r_squared"):
            assert getattr(huge, column).tobytes() == getattr(whole, column).tobytes()

    def test_too_short_rejected(self):
        rets = make_returns(generate_gaussian(39, seed=3))
        with pytest.raises(ValueError, match="shorter than window"):
            rolling_hurst(rets, small_protocol(window=40))

    def test_each_window_matches_standalone_estimate(self):
        values = generate_gaussian(200, seed=4)
        rets = make_returns(values)
        for estimator, standalone in (("rs", hurst_rs), ("dfa", hurst_dfa)):
            proto = small_protocol(window=64, step=13, estimator=estimator)
            result = rolling_hurst(rets, proto)
            assert result.h.size == (200 - 64) // 13 + 1
            for i in range(result.h.size):
                sl = values[i * 13 : i * 13 + 64]
                if estimator == "rs":
                    fresh = standalone(sl, SMALL_LADDER)
                else:
                    fresh = standalone(sl, SMALL_LADDER, proto.detrend_order)
                # exact, no incremental drift
                assert result.h[i] == fresh.h
                assert result.r_squared[i] == fresh.r_squared

    def test_determinism(self):
        rets = make_returns(generate_gaussian(150, seed=5))
        proto = small_protocol()
        a, b = rolling_hurst(rets, proto), rolling_hurst(rets, proto)
        np.testing.assert_array_equal((a.start_dates, a.end_dates), (b.start_dates, b.end_dates))
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.r_squared, b.r_squared)

    @pytest.mark.parametrize("estimator", ["dfa", "rs"])
    def test_fits_each_window_once(self, monkeypatch, estimator):
        calls = []
        fit = estimators.fit_power_law
        monkeypatch.setattr(estimators, "fit_power_law",
                            lambda points: calls.append(points) or fit(points))
        result = rolling_hurst(make_returns(generate_gaussian(100, seed=8)),
                               small_protocol(estimator=estimator))
        assert len(calls) == result.h.size == (100 - 40) // 5 + 1

    @pytest.mark.parametrize("estimator", ["dfa", "rs"])
    def test_estimator_error_names_window(self, estimator):
        # returns go flat from index 60: the window at offset 60 is the
        # first with no usable ladder size
        rets = make_returns(np.concatenate([generate_gaussian(60, seed=9), np.zeros(40)]))
        message = (f"window 13 ({rets.dates[60]} to {rets.dates[99]}): "
                   "insufficient scaling points: only 0 of 3 ladder sizes have a positive "
                   "statistic")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rolling_hurst(rets, small_protocol(estimator=estimator))

    def test_columns_are_read_only(self):
        result = rolling_hurst(make_returns(generate_gaussian(100, seed=7)), small_protocol())
        before, _ = split_at(result, date(2100, 1, 1))
        for column in (result.h, result.r_squared, before):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0


class TestSplitAt:
    @pytest.fixture(scope="class")
    def result(self):
        rets = make_returns(generate_gaussian(120, seed=6))
        return rolling_hurst(rets, small_protocol(window=40, step=8))

    def test_split_before_everything(self, result):
        before, after = split_at(result, date(1990, 1, 1))
        assert before.size == 0 and np.array_equal(after, result.h)

    def test_split_after_everything(self, result):
        before, after = split_at(result, date(2100, 1, 1))
        assert after.size == 0 and np.array_equal(before, result.h)

    def test_partition_preserves_order_and_count(self, result):
        for i, start in enumerate(result.start_dates):
            before, after = split_at(result, start + timedelta(days=3))
            assert before.size == i + 1
            assert np.array_equal(np.concatenate([before, after]), result.h)

    def test_classification_by_end_date(self, result):
        split = result.end_dates[0]
        before_start, _ = split_at(result, split, by="start")
        before_end, _ = split_at(result, split, by="end")
        # windows starting before the split but ending on/after it move sides
        assert before_end.size < before_start.size

    @given(
        split=st.dates(min_value=date(1999, 12, 1), max_value=date(2000, 6, 1)),
        by=st.sampled_from(["start", "end"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_filter(self, result, split, by):
        keys = result.start_dates if by == "start" else result.end_dates
        before, after = split_at(result, split, by=by)
        assert np.array_equal(before, [h for k, h in zip(keys, result.h) if k < split])
        assert np.array_equal(after, [h for k, h in zip(keys, result.h) if k >= split])

    def test_bad_classifier(self, result):
        with pytest.raises(ValueError, match="'start' or 'end'"):
            split_at(result, date(2000, 1, 1), by="middle")

    def test_bad_classifier_is_named_as_the_setting(self, result):
        # the message RunConfig gives for the same value
        with pytest.raises(ValueError, match=r"^split_by must be 'start' or 'end'$"):
            split_at(result, date(2000, 1, 1), by="middle")
