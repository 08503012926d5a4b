import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longmem import estimators
from longmem.estimators import (
    BlockLadder,
    dfa_fluctuation,
    dfa_profile,
    estimate_from_points,
    fit_power_law,
    hurst_dfa,
    hurst_rs,
)
from longmem.synth import FgnSpec, generate_fgn, generate_gaussian, powerlaw_fixture

PAPER_LADDER = BlockLadder((4, 8, 16, 32, 64, 128))


def dfa_fluctuation_oracle(profile, m, order):
    """Independent per-window residual evaluation via numpy's polyfit."""
    prof = np.asarray(profile, dtype=float)
    nwin = prof.size // m
    t = np.arange(m, dtype=float)
    total = 0.0
    for w in range(nwin):
        seg = prof[w * m : (w + 1) * m]
        coeffs = np.polyfit(t, seg, order)
        total += float(np.sum((seg - np.polyval(coeffs, t)) ** 2))
    return math.sqrt(total / (nwin * m))


class TestBlockLadder:
    def test_rejects_fewer_than_three_sizes(self):
        with pytest.raises(ValueError, match="at least 3"):
            BlockLadder((4, 8))

    def test_rejects_small_sizes(self):
        with pytest.raises(ValueError, match=">= 4"):
            BlockLadder((2, 8, 16))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            BlockLadder((4, 8, 8))

    def test_max_size_relative_to_series(self):
        # the whole series is one window, which holds twice the largest size
        lad = BlockLadder((4, 8, 16))
        x = generate_gaussian(32, seed=2)
        assert len(hurst_rs(x, lad).points) == 3
        with pytest.raises(ValueError, match=r"^window 31 must be at least twice the "
                                             r"largest ladder size \(16\)$"):
            hurst_rs(x[:31], lad)

    @pytest.mark.parametrize("estimate", [hurst_dfa, hurst_rs])
    @pytest.mark.parametrize("sizes", [(4, 8, 16), [4, 8, 16]])
    def test_sizes_give_the_bits_of_their_block_ladder(self, estimate, sizes):
        x = generate_gaussian(200, seed=4)
        assert estimate(x, sizes) == estimate(x, BlockLadder((4, 8, 16)))


def rs_statistic(values):
    """The R/S statistic of one block: one window made of one block, floor 0."""
    x = np.asarray(values, dtype=float)
    return estimators._shared_blocks(x, np.zeros(1, dtype=int), x.size, x.size, np.zeros(1))[0]


class TestRsStatistic:
    def test_two_point_hand_value(self):
        # cumdevs [1, 0], spread 1, population s = 1
        assert rs_statistic([1.0, -1.0]) == pytest.approx(1.0, abs=1e-14)

    def test_four_point_hand_value(self):
        # cumdevs [-1.5, -2, -1.5, 0]: spread 2; s = sqrt(5)/2
        assert rs_statistic([1.0, 2.0, 3.0, 4.0]) == pytest.approx(
            2.0 / math.sqrt(1.25), rel=1e-14
        )

    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3),
        shift=st.floats(min_value=-1e3, max_value=1e3),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_and_shift_invariance(self, scale, shift, seed):
        x = np.random.default_rng(seed).standard_normal(64)
        base = rs_statistic(x)
        assert rs_statistic(x * scale) == pytest.approx(base, abs=1e-10)
        assert rs_statistic(x + shift) == pytest.approx(base, abs=1e-10)


class TestFitPowerLaw:
    def test_two_point_fixture(self):
        slope, intercept, r2 = fit_power_law(powerlaw_fixture(1.0, (4, 8)))
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert r2 == 1.0

    def test_fractional_exponent(self):
        slope, _, _ = fit_power_law(powerlaw_fixture(0.37, (4, 8)))
        assert slope == pytest.approx(0.37, abs=1e-12)

    def test_flat_fixture(self):
        points = powerlaw_fixture(0.0, (4, 8, 16))
        assert all(v == 1.0 for _, v in points)
        slope, _, r2 = fit_power_law(points)
        assert slope == 0.0
        assert r2 == 1.0

    def test_regressor_shift_preserves_slope(self):
        # fitting against ln(m) or ln(m/2) changes only the intercept (by h*ln 2)
        values = [(m, 3.0 * m**0.5) for m in (4, 8, 16, 32)]
        halved = [(m / 2.0, v) for m, v in values]
        s1, i1, _ = fit_power_law(values)
        s2, i2, _ = fit_power_law(halved)
        assert s2 == pytest.approx(s1, abs=1e-12)
        assert i2 - i1 == pytest.approx(s1 * math.log(2.0), abs=1e-10)

    def test_horizontal_perfect_fit_has_r_squared_one(self):
        slope, intercept, r2 = fit_power_law([(m, 2.5) for m in (4, 8, 16, 32, 64, 128)])
        assert (slope, r2) == (0.0, 1.0)
        assert intercept == pytest.approx(math.log(2.5), abs=1e-15)

    @pytest.mark.parametrize("ladder", [(4, 8, 16, 32, 64, 128), (5, 9, 17, 33)])
    @pytest.mark.parametrize("value", [10.0, 2.5, 7.3, 1e-300])
    def test_horizontal_fit_r_squared_is_one_whatever_the_rounding(self, ladder, value):
        # the mean of six logs of 10.0 rounds, leaving a total variation of ~1e-31, not 0
        slope, intercept, r2 = fit_power_law([(m, value) for m in ladder])
        assert r2 == 1.0
        assert abs(slope) <= 1e-30
        assert intercept == pytest.approx(math.log(value), rel=1e-15)

    @pytest.mark.parametrize("h", [0.3, 0.5, 0.6, 0.7, 1.0])
    def test_exact_power_law_gives_its_exponent(self, h):
        slope, _, r2 = fit_power_law(powerlaw_fixture(h, (4, 8, 16, 32, 64, 128)))
        assert abs(slope - h) <= 1e-15
        assert r2 == pytest.approx(1.0, abs=1e-15)

    def test_poor_fit_clamps_r_squared_at_zero(self):
        # the middle point lifts the fit only by rounding: unclamped, r² is -2.2e-16
        assert fit_power_law([(4, 1.9), (8, 2.8), (16, 1.9)])[2] == 0.0

    def test_nan_value_gives_nan_slope(self):
        slope, intercept, _ = fit_power_law([(4, float("nan")), (8, 1.0), (16, 2.0)])
        assert math.isnan(slope) and math.isnan(intercept)

    def test_numpy_array_of_points_accepted(self):
        points = powerlaw_fixture(0.6, (4, 8, 16, 32, 64, 128))
        got = fit_power_law(np.array(points))
        assert got == fit_power_law(points)
        assert all(type(v) is float for v in got)

    @pytest.mark.parametrize("points, message", [
        ([], "power-law fit needs at least 2 points"),
        ([(4, 1.0)], "power-law fit needs at least 2 points"),
        ([(4, 1.0), (8, -2.0), (16, 3.0)], "power-law fit needs positive sizes and values"),
        ([(4, 1.0), (0, 2.0), (16, 3.0)], "power-law fit needs positive sizes and values"),
        ([(8, 1.0), (8, 2.0)], "power-law fit needs at least 2 distinct sizes"),
    ])
    def test_bad_points_rejected(self, points, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit_power_law(points)


class TestHurstRs:
    def test_exact_power_law_recovery(self):
        lad = BlockLadder((4, 8, 16, 32))
        points = [(m, 2.7 * m**0.5) for m in lad]
        est = estimate_from_points(points, method="rs", ladder=lad)
        assert est.h == pytest.approx(0.5, abs=1e-10)

    def test_gaussian_null_upward_bias(self):
        # classical R/S bias at finite block sizes: null mean sits above 0.5
        lad = BlockLadder((16, 32, 64, 128, 256))
        hs = [hurst_rs(generate_gaussian(10000, seed=s), lad).h for s in range(50)]
        assert 0.50 <= float(np.mean(hs)) <= 0.62

    def test_degenerate_blocks_are_skipped(self):
        # constant head: its blocks are degenerate at every size, the rest carry through
        x = np.concatenate([np.zeros(16), np.random.default_rng(0).standard_normal(112)])
        est = hurst_rs(x, BlockLadder((4, 8, 16)))
        assert len(est.points) == 3

    def test_all_degenerate_rejected(self):
        with pytest.raises(ValueError, match="insufficient scaling points"):
            hurst_rs(np.ones(64), BlockLadder((4, 8, 16)))

    def test_ladder_checked_against_length(self):
        with pytest.raises(ValueError, match=r"window 100 must be at least twice .* \(64\)"):
            hurst_rs(np.arange(100.0), BlockLadder((4, 8, 64)))


class TestDfaProfile:
    def test_constant_series(self):
        assert np.array_equal(dfa_profile([5.0, 5.0, 5.0]), np.zeros(3))

    def test_alternating_series(self):
        assert np.array_equal(dfa_profile([1.0, -1.0, 1.0, -1.0]), [1.0, 0.0, 1.0, 0.0])

    def test_single_point(self):
        assert np.array_equal(dfa_profile([3.0]), [0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            dfa_profile([])

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_last_element_vanishes(self, values):
        prof = dfa_profile(values)
        assert abs(prof[-1]) <= 1e-9 * max(1.0, float(np.sum(np.abs(values))))


class TestDfaFluctuation:
    def test_piecewise_linear_profile_detrends_to_zero(self):
        # each length-4 window is exactly linear under an order-1 fit
        prof = np.concatenate([np.arange(4.0), 10.0 - 2.0 * np.arange(4.0)])
        assert dfa_fluctuation(prof, 4, order=1) == pytest.approx(0.0, abs=1e-12)

    def test_alternating_profile_matches_oracle(self):
        prof = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        mine = dfa_fluctuation(prof, 4, order=1)
        assert mine == pytest.approx(dfa_fluctuation_oracle(prof, 4, 1), rel=1e-12)
        assert mine == pytest.approx(math.sqrt(0.2), rel=1e-12)

    def test_constant_offset_absorbed(self):
        rng = np.random.default_rng(3)
        prof = np.cumsum(rng.standard_normal(96))
        for order in (0, 1, 2):
            base = dfa_fluctuation(prof, 8, order)
            assert dfa_fluctuation(prof + 123.456, 8, order) == pytest.approx(
                base, rel=1e-9
            )

    def test_block_too_small_for_order(self):
        with pytest.raises(ValueError, match="too small"):
            dfa_fluctuation(np.arange(32.0), 4, order=3)

    def test_block_exceeding_profile(self):
        with pytest.raises(ValueError, match="exceeds"):
            dfa_fluctuation(np.arange(8.0), 16, order=1)

    def test_trailing_points_excluded(self):
        # 10 points, m=4: only the first 8 participate
        prof = np.concatenate([np.arange(8.0) % 3, [1e6, -1e6]])
        trimmed = prof[:8]
        assert dfa_fluctuation(prof, 4, 1) == pytest.approx(
            dfa_fluctuation(trimmed, 4, 1), rel=1e-12
        )

    def test_random_batch_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(64, 513))
            prof = dfa_profile(rng.standard_normal(n))
            for order in (1, 2):
                for m in (4, 8, 16, 32, 64, 128):
                    if m > n // 2 or m < order + 2:
                        continue
                    mine = dfa_fluctuation(prof, m, order)
                    oracle = dfa_fluctuation_oracle(prof, m, order)
                    assert mine == pytest.approx(oracle, rel=1e-12)


class TestHurstDfa:
    def test_exact_power_law_recovery(self):
        points = [(m, 0.8 * m**0.7) for m in PAPER_LADDER]
        est = estimate_from_points(
            points, method="dfa", ladder=PAPER_LADDER, detrend_order=1
        )
        assert est.h == pytest.approx(0.7, abs=1e-10)

    def test_gaussian_null_with_octave_ladder(self):
        # The strict covered-points divisor leaves DFA-1 with a small upward
        # bias at block size 4; the 50-seed null mean sits near 0.534, not at
        # 0.5. Frozen from the Monte Carlo run that produced it.
        hs = [hurst_dfa(generate_gaussian(10000, seed=s), PAPER_LADDER).h
              for s in range(50)]
        assert 0.52 <= float(np.mean(hs)) <= 0.55

    def test_fgn_recovery_persistent(self):
        hs = [
            hurst_dfa(generate_fgn(FgnSpec(h=0.7, n=10000, seed=s)), PAPER_LADDER).h
            for s in range(50)
        ]
        assert 0.65 <= float(np.mean(hs)) <= 0.75

    def test_affine_invariance(self):
        y = generate_gaussian(2000, seed=21)
        base = hurst_dfa(y, PAPER_LADDER).h
        for a, b in ((3.5, 0.0), (-2.0, 7.0), (0.001, -4.0)):
            assert hurst_dfa(a * y + b, PAPER_LADDER).h == pytest.approx(
                base, abs=1e-9
            )

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="insufficient scaling points"):
            hurst_dfa(np.full(512, 2.0), PAPER_LADDER)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            hurst_dfa(np.arange(512.0), PAPER_LADDER, order=0)

    def test_block_too_small_for_order_rejected(self):
        # a size needs order + 2 points; the direct call checks it as the CLI does
        x = generate_gaussian(512, seed=4)
        with pytest.raises(ValueError, match="^block size 4 too small for an order-3 fit$"):
            hurst_dfa(x, BlockLadder((4, 8, 16, 32)), order=3)


class TestHurstEstimate:
    def test_self_consistency(self):
        x, lad = generate_gaussian(1024, seed=5), BlockLadder((4, 8, 16, 32))
        for est, kind in [(hurst_dfa(x, lad, order=1), ("dfa", 1)),
                          (hurst_dfa(x, lad, order=2), ("dfa", 2)),
                          (hurst_rs(x, lad), ("rs", None))]:
            slope, _, _ = fit_power_law(est.points)
            assert abs(slope - est.h) <= 1e-12 * max(1.0, abs(est.h))
            assert (est.method, est.detrend_order) == kind

    def test_fit_is_stored(self):
        lad = BlockLadder((4, 8, 16))
        points = ((4, 2.0), (8, 2.8), (16, 4.1))
        est = estimate_from_points(points, method="rs", ladder=lad)
        assert est.points == points
        assert (est.h, est.intercept, est.r_squared) == fit_power_law(points)

    def test_too_few_points_names_survivors(self):
        with pytest.raises(ValueError) as info:
            estimate_from_points(((4, 2.0), (8, 2.8)), method="rs", ladder=BlockLadder((4, 8, 16)))
        assert str(info.value) == (
            "insufficient scaling points: only 2 of 3 ladder sizes have a positive statistic"
        )


class TestDropRule:
    @pytest.mark.parametrize("estimate", [hurst_dfa, hurst_rs])
    def test_constant_input_same_error_for_both_estimators(self, estimate):
        with pytest.raises(ValueError) as info:
            estimate(np.full(512, 2.0), PAPER_LADDER)
        assert str(info.value) == (
            "insufficient scaling points: only 0 of 6 ladder sizes have a positive statistic"
        )

    @pytest.mark.parametrize("estimate", [hurst_dfa, hurst_rs])
    def test_fixed_rate_returns_keep_no_size(self, estimate):
        # returns of a price compounding at a fixed rate vary only by rounding
        prices = 100.0 * 1.0002 ** np.arange(1300)
        returns = np.log(prices[1:] / prices[:-1]) * 100.0
        assert returns.max() > returns.min()
        with pytest.raises(ValueError) as info:
            estimate(returns, PAPER_LADDER)
        assert str(info.value) == (
            "insufficient scaling points: only 0 of 6 ladder sizes have a positive statistic"
        )

    @pytest.mark.parametrize("estimate", [hurst_dfa, hurst_rs])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_first_non_finite_value_is_named(self, estimate, bad):
        x = np.array(generate_gaussian(512, seed=4))
        x[[2, 300]] = bad, math.nan
        with pytest.raises(ValueError) as info:
            estimate(x, PAPER_LADDER)
        assert str(info.value) == f"cannot estimate from non-finite value {bad} at index 2"

    @pytest.mark.parametrize("estimate", [hurst_dfa, hurst_rs])
    def test_flat_rule_is_relative_to_scale(self, estimate):
        x = generate_gaussian(1024, seed=5)
        tiny, unit = estimate(1e-12 * x, PAPER_LADDER), estimate(x, PAPER_LADDER)
        assert len(tiny.points) == 6
        assert tiny.h == pytest.approx(unit.h, abs=1e-9)

    def test_rs_drops_size_whose_blocks_are_all_constant(self):
        # every 4-block repeats one value; 8-blocks and longer span two values
        x = np.repeat(np.random.default_rng(2).standard_normal(32), 4)
        est = hurst_rs(x, BlockLadder((4, 8, 16, 32)))
        assert [m for m, _ in est.points] == [8, 16, 32]
        assert est.ladder.sizes == (4, 8, 16, 32)

    def test_dfa_drops_size_with_zero_fluctuation(self):
        # a profile linear on every 4-block, as multiples of (1, 3, 5, 7) so
        # the order-1 fit leaves no rounding residue; longer blocks span kinks
        scale = np.tile([1.0, -1.0, 2.0, -2.0], 8)
        scale[-1] = 0.0  # a profile ends at 0, so its last block is flat
        profile = np.concatenate([k * np.array([1.0, 3.0, 5.0, 7.0]) for k in scale])
        y = np.diff(profile, prepend=0.0)
        assert np.array_equal(dfa_profile(y), profile)
        assert dfa_fluctuation(profile, 4, order=1) == 0.0
        est = hurst_dfa(y, BlockLadder((4, 8, 16, 32)), order=1)
        assert [m for m, _ in est.points] == [8, 16, 32]

    def test_dfa_drops_size_whose_blocks_are_all_stale(self):
        # every 48-block lies in the run of zeros, so F(48) is rounding
        est = hurst_dfa(np.r_[np.zeros(119), 1.0], BlockLadder((6, 12, 24, 48)))
        assert [m for m, _ in est.points] == [6, 12, 24]

    def test_rs_skips_accruing_blocks_as_it_skips_constant_ones(self):
        # returns 128-383 of a price compounding at a fixed rate vary only by
        # rounding, so their blocks count no more than blocks of one constant
        prices = 100.0 * 1.0002 ** np.arange(501)
        accrual = np.log(prices[1:] / prices[:-1]) * 100.0
        accruing = np.array(generate_gaussian(500, seed=3))
        constant = accruing.copy()
        accruing[128:384] = accrual[128:384]
        constant[128:384] = 0.02
        a, b = hurst_rs(accruing, PAPER_LADDER), hurst_rs(constant, PAPER_LADDER)
        assert (a.h, a.r_squared) == (b.h, b.r_squared)
