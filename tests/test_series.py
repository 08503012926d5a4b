import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longmem.series import (
    PriceSeries,
    ReturnSeries,
    describe,
    jarque_bera,
    log_returns,
)


def make_prices(values, label="x", start=date(2020, 1, 1)):
    dates = tuple(start + timedelta(days=i) for i in range(len(values)))
    return PriceSeries(label, dates, tuple(float(v) for v in values))


class TestPriceSeries:
    def test_requires_two_observations(self):
        with pytest.raises(ValueError, match="at least 2"):
            make_prices([100.0])

    def test_rejects_non_positive_price_naming_date(self):
        with pytest.raises(ValueError, match="2020-01-02"):
            make_prices([100.0, -1.0])
        with pytest.raises(ValueError, match="2020-01-01"):
            make_prices([0.0, 1.0])

    @pytest.mark.parametrize("price, cause", [
        (math.nan, "non-finite price nan"),
        (math.inf, "non-finite price inf"),
        (-1.0, "non-positive price -1.0"),
    ])
    def test_bad_price_states_its_cause(self, price, cause):
        with pytest.raises(ValueError, match=f"^{cause} at 2020-01-02$"):
            make_prices([100.0, price])

    def test_rejects_non_increasing_dates(self):
        def days(*cells):
            return np.array(cells, "datetime64[D]")

        d = date(2020, 1, 1)
        for dates, at in [
            ((d, d), "2020-01-01"),
            (days("2020-01-02", "2020-01-01", "2020-01-03"), "2020-01-01"),
            # a NaT has no place in the order, wherever it stands
            (days("2020-01-01", "NaT", "2020-01-03"), "NaT"),
            (days("NaT", "2020-01-02", "2020-01-03"), "NaT"),
            (days("2020-01-01", "2020-01-02", "NaT"), "NaT"),
            (days("NaT"), "NaT"),
        ]:
            with pytest.raises(ValueError, match=f"^dates not strictly increasing at {at}$"):
                PriceSeries("x", dates, [1.0] * len(dates))

    def test_rejects_a_length_mismatch(self):
        with pytest.raises(ValueError, match="^dates and prices must have equal length$"):
            PriceSeries("x", (date(2020, 1, 1),), (1.0, 2.0))

    def test_values_are_a_read_only_copy(self):
        dates, prices = (date(2020, 1, 1), date(2020, 1, 2)), np.array([100.0, 101.0])
        series = PriceSeries("x", dates, prices)
        prices[0] = 1.0
        assert series.values.dtype == np.float64
        assert series.values.tolist() == [100.0, 101.0]
        with pytest.raises(ValueError, match="read-only"):
            series.values[0] = 1.0
        assert series != PriceSeries("x", dates, series.values)  # compared by identity

    def test_dates_are_a_read_only_copy_in_days(self):
        dates = np.array(["2020-01-01", "2020-01-02", "2020-01-03"], "datetime64[D]")
        prices = PriceSeries("x", dates, [1.0, 2.0, 4.0])
        dates[0] = "2019-12-31"
        assert prices.dates.tolist() == [date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 3)]
        for series in (prices, log_returns(prices)):
            assert series.dates.dtype == np.dtype("datetime64[D]")
            with pytest.raises(ValueError, match="read-only"):
                series.dates[0] = series.dates[-1]

    @given(st.lists(st.sampled_from([1.0, 2.5, 1e-300, 0.0, -0.0, -1.0, math.nan,
                                     math.inf, -math.inf]), min_size=2, max_size=8))
    @settings(max_examples=200)
    def test_checks_name_the_first_bad_price_as_the_element_wise_rule(self, values):
        dates = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(len(values)))
        expected = None
        for d, p in zip(dates, values):  # the element-wise reference
            if not math.isfinite(p) or p <= 0:
                cause = "non-finite" if not math.isfinite(p) else "non-positive"
                expected = f"{cause} price {p} at {d.isoformat()}"
                break
        if expected is None:
            assert PriceSeries("x", dates, values).values.tolist() == values
        else:
            with pytest.raises(ValueError) as err:
                PriceSeries("x", dates, values)
            assert str(err.value) == expected


class TestLogReturns:
    def test_flat_prices_zero_return(self):
        rs = log_returns(make_prices([100.0, 100.0]))
        assert rs.values.tolist() == [0.0]

    def test_single_e_fold_is_100_percent(self):
        rs = log_returns(make_prices([100.0, 100.0 * math.e]))
        assert rs.values[0] == pytest.approx(100.0, abs=1e-9)

    def test_doubling_prices(self):
        # ln(2) * 100 = 69.31472 to 5 decimals
        rs = log_returns(make_prices([1.0, 2.0, 4.0]))
        assert rs.values == pytest.approx([69.31472, 69.31472], abs=5e-6)

    def test_dated_with_later_observation(self):
        prices = make_prices([1.0, 2.0, 4.0])
        rs = log_returns(prices)
        np.testing.assert_array_equal(rs.dates, prices.dates[1:])
        assert len(rs) == len(prices) - 1

    @given(
        scale=st.floats(min_value=1e-6, max_value=1e6),
        values=st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=2, max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, scale, values):
        base = log_returns(make_prices(values)).values
        scaled = log_returns(make_prices([v * scale for v in values])).values
        assert np.all(np.abs(base - scaled) <= 1e-12 * np.maximum(1.0, np.abs(base)))


class TestDescribe:
    def test_linear_sample_hand_moments(self):
        # [1..5]: population variance 2, m4 = 6.8, so kurtosis 1.7 and
        # JB = 5/6 * (0 + (1.7-3)^2 / 4)
        stats = describe([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.mean == 3.0
        assert stats.median == 3.0
        assert stats.std_dev == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert stats.skewness == pytest.approx(0.0, abs=1e-12)
        assert stats.kurtosis == pytest.approx(1.7, rel=1e-12)
        assert stats.jarque_bera == pytest.approx(5.0 / 6.0 * (1.69 / 4.0), rel=1e-12)

    def test_zero_jb_at_normal_moments(self):
        assert jarque_bera(0.0, 3.0, 12345) == 0.0

    def test_table_jb_arithmetic(self):
        assert jarque_bera(0.0042, 7.8733, 4203) == pytest.approx(4159, rel=0.01)

    def test_constant_series_sentinels(self):
        stats = describe([2.5] * 10)
        assert stats.std_dev == 0.0
        assert stats.mean == 2.5
        assert stats.skewness is None
        assert stats.kurtosis is None
        assert stats.jarque_bera is None

    def test_rejects_short_samples(self):
        with pytest.raises(ValueError, match="at least 4"):
            describe([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("values, held", [
        ([1.0, 2.0, math.nan, 4.0, math.inf], "nan at index 2"),
        ([1.0, math.inf, 3.0, 4.0], "inf at index 1"),
        ([1.0, 2.0, 3.0, -math.inf], "-inf at index 3"),
        ([math.nan] * 4, "nan at index 0"),
    ])
    def test_rejects_non_finite_values_naming_the_first(self, values, held):
        # unchecked, a NaN or an inf left NaN in the reported statistics
        with pytest.raises(ValueError, match=f"^cannot describe non-finite value {held}$"):
            describe(values)

    def test_even_length_median_is_central_mean(self):
        stats = describe([1.0, 2.0, 10.0, 20.0])
        assert stats.median == 6.0

    def test_accepts_return_series(self):
        rs = log_returns(make_prices([1.0, 2.0, 4.0, 8.0, 16.0]))
        stats = describe(rs.values)
        assert stats.n == 4
        assert stats.std_dev == pytest.approx(0.0, abs=1e-9)

    def test_sign_flip(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(200) * 3.0 + 0.5
        s_pos, s_neg = describe(x), describe(-x)
        assert s_neg.mean == pytest.approx(-s_pos.mean, abs=1e-10)
        assert s_neg.median == pytest.approx(-s_pos.median, abs=1e-10)
        assert s_neg.min == pytest.approx(-s_pos.max, abs=1e-10)
        assert s_neg.max == pytest.approx(-s_pos.min, abs=1e-10)
        assert s_neg.skewness == pytest.approx(-s_pos.skewness, abs=1e-10)
        assert s_neg.std_dev == pytest.approx(s_pos.std_dev, abs=1e-10)
        assert s_neg.kurtosis == pytest.approx(s_pos.kurtosis, abs=1e-10)
        assert s_neg.jarque_bera == pytest.approx(s_pos.jarque_bera, abs=1e-10)

    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=4, max_size=60)
    )
    @example([2.0] * 5)
    @example([1.0, 1.0 + 2**-52, 1.0, 1.0])
    @settings(max_examples=100, deadline=None)
    def test_reported_statistics_are_consistent(self, values):
        stats = describe(values)
        assert stats.min <= stats.median <= stats.max
        assert stats.std_dev >= 0
        higher = (stats.skewness, stats.kurtosis, stats.jarque_bera)
        assert all(v is None for v in higher) or all(type(v) is float for v in higher)
        assert (stats.jarque_bera is None) == (stats.std_dev == 0)
        if stats.jarque_bera is not None:
            expected = jarque_bera(stats.skewness, stats.kurtosis, stats.n)
            assert abs(stats.jarque_bera - expected) <= 1e-9 * max(1.0, abs(expected))


class TestReturnSeries:
    def test_rejects_non_finite(self):
        d = (date(2020, 1, 1), date(2020, 1, 2))
        with pytest.raises(ValueError, match="non-finite"):
            ReturnSeries("x", d, (1.0, math.inf))

    def test_names_the_first_non_finite_return(self):
        d = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(4))
        with pytest.raises(ValueError, match="^non-finite return at 2020-01-02$"):
            ReturnSeries("x", d, (1.0, math.nan, 2.0, -math.inf))

    def test_values_are_read_only_float64(self):
        d = (date(2020, 1, 1), date(2020, 1, 2))
        series = ReturnSeries("x", d, [1, -2])
        assert series.values.dtype == np.float64 and not series.values.flags.writeable
