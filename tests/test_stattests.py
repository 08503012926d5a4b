import itertools
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from longmem.stattests import (
    RANDOM_WALK_H,
    bounds_from_moments,
    build_report,
    f_sf,
    levene,
    mann_whitney,
    student_t_quantile,
    t_bounds,
)

mp.mp.dps = 50


# ---------------------------------------------------------------- oracles

def mw_exact_oracle(a, b):
    """Two-sided exact p by enumerating every rank split of the pooled sample."""
    pooled = sorted(list(a) + list(b))
    assert len(set(pooled)) == len(pooled), "oracle assumes no ties"
    n1, n2 = len(a), len(b)
    rank = {v: i + 1 for i, v in enumerate(pooled)}
    u_obs = sum(rank[v] for v in a) - n1 * (n1 + 1) / 2
    u_min, u_max = min(u_obs, n1 * n2 - u_obs), max(u_obs, n1 * n2 - u_obs)
    hits = total = 0
    for combo in itertools.combinations(range(1, n1 + n2 + 1), n1):
        u = sum(combo) - n1 * (n1 + 1) / 2
        total += 1
        if u <= u_min or u >= u_max:
            hits += 1
    return min(1.0, hits / total)


def t_cdf_mp(t, df):
    t, df = mp.mpf(t), mp.mpf(df)
    x = df / (df + t**2)
    tail = mp.betainc(df / 2, mp.mpf(1) / 2, 0, x, regularized=True) / 2
    return 1 - tail if t > 0 else tail


def t_quantile_mp(level, df):
    return float(mp.findroot(lambda t: t_cdf_mp(t, df) - mp.mpf(level), 2.0))


def f_sf_mp(w, d1, d2):
    w, d1, d2 = mp.mpf(w), mp.mpf(d1), mp.mpf(d2)
    x = d1 * w / (d1 * w + d2)
    return float(1 - mp.betainc(d1 / 2, d2 / 2, 0, x, regularized=True))


# ---------------------------------------------------------------- mann-whitney

class TestMidranks:
    """The first sample's rank sum at every split k of one pooled sample: the
    prefix sums of the midranks, so each midrank is pinned."""

    @staticmethod
    def assert_rank_sums_match_scipy(x):
        ranks = scipy_stats.rankdata(x)
        for k in range(1, x.size):
            assert mann_whitney(x[:k], x[k:]).rank_sum == ranks[:k].sum()

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scipy_rankdata_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            x = rng.integers(0, rng.integers(1, 12), size=rng.integers(2, 40)).astype(float)
            self.assert_rank_sums_match_scipy(x)

    def test_matches_scipy_rankdata_without_ties(self):
        self.assert_rank_sums_match_scipy(np.random.default_rng(7).standard_normal(500))


class TestMannWhitney:
    def test_identical_samples(self):
        res = mann_whitney([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.u1 == res.u2 == 4.5
        assert res.p == 1.0

    def test_fully_separated_exact(self):
        res = mann_whitney([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert res.u1 == 0.0
        assert res.method == "exact"
        assert res.p == pytest.approx(0.1, abs=1e-15)  # 2 / C(6,3)

    def test_exact_path_matches_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            pool = rng.permutation(100)[: 2 * n].astype(float)
            a, b = pool[:n], pool[n:]
            res = mann_whitney(a, b)
            assert res.method == "exact"
            assert res.p == pytest.approx(mw_exact_oracle(a, b), abs=1e-12)

    def test_normal_path_matches_scipy(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(30)
        y = rng.standard_normal(25) + 0.4
        res = mann_whitney(x, y)
        assert res.method == "normal"
        ref = scipy_stats.mannwhitneyu(
            x, y, alternative="two-sided", method="asymptotic", use_continuity=True
        )
        assert res.p == pytest.approx(float(ref.pvalue), rel=1e-12)
        assert res.u1 == float(ref.statistic)

    def test_tied_normal_path_matches_scipy(self):
        rng = np.random.default_rng(29)
        x = np.round(rng.standard_normal(40), 1)
        y = np.round(rng.standard_normal(35), 1)
        res = mann_whitney(x, y)
        ref = scipy_stats.mannwhitneyu(
            x, y, alternative="two-sided", method="asymptotic", use_continuity=True
        )
        assert res.p == pytest.approx(float(ref.pvalue), rel=1e-12)

    def test_ties_force_normal_path(self):
        res = mann_whitney([1.0, 2.0, 2.0], [2.0, 3.0, 4.0])
        assert res.method == "normal"

    def test_all_identical_gives_p_one(self):
        res = mann_whitney([5.0] * 10, [5.0] * 12)
        assert res.p == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            mann_whitney([], [1.0])

    @pytest.mark.parametrize("a, b, held", [
        ([math.nan, 1.0, 2.0], [1.0, 2.0, 3.0], "the first holds nan"),
        ([1.0, 2.0, 3.0], [1.0, math.inf, 3.0], "the second holds inf"),
        ([1.0, 2.0, 3.0], [-math.inf, math.nan], "the second holds -inf"),
    ])
    def test_non_finite_value_rejected(self, a, b, held):
        # unchecked, a NaN would rank last and give a plausible p (1.0 here)
        with pytest.raises(ValueError, match=f"^Mann-Whitney needs finite samples: {held}$"):
            mann_whitney(a, b)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n1=st.integers(min_value=1, max_value=20),
        n2=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_symmetry_and_u_sum(self, seed, n1, n2):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n1)
        b = rng.standard_normal(n2)
        ab, ba = mann_whitney(a, b), mann_whitney(b, a)
        assert ab.u1 + ab.u2 == pytest.approx(n1 * n2, abs=1e-9)
        assert ab.p == pytest.approx(ba.p, abs=1e-12)
        assert ab.u1 == pytest.approx(ba.u2, abs=1e-9)


# ---------------------------------------------------------------- levene

class TestLevene:
    def test_identical_samples(self):
        res = levene([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.w == pytest.approx(0.0, abs=1e-14)
        assert res.p == pytest.approx(1.0, abs=1e-14)

    def test_hand_computed_anova(self):
        a, b = [1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0]
        # absolute mean deviations: [1.5, .5, .5, 1.5] and [15, 5, 5, 15]
        za, zb = [1.5, 0.5, 0.5, 1.5], [15.0, 5.0, 5.0, 15.0]
        ma, mb = sum(za) / 4, sum(zb) / 4
        grand = (sum(za) + sum(zb)) / 8
        between = 4 * (ma - grand) ** 2 + 4 * (mb - grand) ** 2
        within = sum((z - ma) ** 2 for z in za) + sum((z - mb) ** 2 for z in zb)
        expected_w = 6.0 * between / within
        res = levene(a, b)
        assert res.w == pytest.approx(expected_w, rel=1e-10)
        assert (res.df_num, res.df_den) == (1, 6)

    def test_matches_scipy_mean_center(self):
        rng = np.random.default_rng(37)
        a = rng.standard_normal(40)
        b = rng.standard_normal(35) * 2.5
        res = levene(a, b)
        ref = scipy_stats.levene(a, b, center="mean")
        assert res.w == pytest.approx(float(ref.statistic), rel=1e-10)
        assert res.p == pytest.approx(float(ref.pvalue), rel=1e-10)

    @given(
        scale=st.floats(min_value=1e-2, max_value=1e2),
        seed=st.integers(min_value=0, max_value=2_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_scale_equivariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(12)
        b = rng.standard_normal(15) * 3.0
        base = levene(a, b).w
        assert levene(a * scale, b * scale).w == pytest.approx(base, abs=1e-9 * max(1, base))

    def test_both_constant_sentinel(self):
        res = levene([2.0, 2.0, 2.0], [5.0, 5.0])
        assert res.w is None and res.p is None

    def test_zero_within_dispersion_with_location_gap(self):
        # two-point samples have constant absolute deviations; unequal spread
        # makes the F ratio infinite
        res = levene([0.0, 2.0], [0.0, 20.0])
        assert res.w == math.inf and res.p == 0.0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            levene([1.0], [2.0, 3.0])

    @pytest.mark.parametrize("a, b, held", [
        ([math.nan, 1.0, 2.0], [1.0, 2.0, 3.0], "the first holds nan"),
        ([1.0, 2.0, 3.0], [1.0, 2.0, -math.inf], "the second holds -inf"),
    ])
    def test_non_finite_value_rejected(self, a, b, held):
        # unchecked, a NaN deviation would make w and p NaN
        with pytest.raises(ValueError, match=f"^Levene needs finite samples: {held}$"):
            levene(a, b)


# ---------------------------------------------------------------- t bounds

class TestStudentTQuantile:
    def test_against_mpmath_oracle(self):
        for level in (0.9, 0.975, 0.999, 0.9995):
            for df in (1, 2, 9, 30, 168, 359, 528, 2000):
                mine = student_t_quantile(level, df)
                oracle = t_quantile_mp(level, df)
                assert mine == pytest.approx(oracle, rel=1e-10)

    def test_level_domain(self):
        for bad in (0.5, 1.0, 0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                student_t_quantile(bad, 10)

    def test_degrees_of_freedom_domain(self):
        with pytest.raises(ValueError, match="^degrees of freedom must be >= 1$"):
            student_t_quantile(0.9, 0)


class TestFSf:
    def test_against_mpmath_oracle(self):
        for w in (0.0, 0.5, 1.0, 4.2, 26.4):
            for d2 in (6, 58, 527, 1056):
                assert f_sf(w, 1, d2) == pytest.approx(f_sf_mp(w, 1, d2), rel=1e-10)

    def test_levene_probability_regions(self):
        assert f_sf(0.0, 1, 100) == 1.0
        assert f_sf(-1.0, 1, 10) == 1.0  # below the support: the whole tail
        assert f_sf(1e6, 1, 100) < 1e-10


class TestTBounds:
    def test_reference_whole_period_bounds(self):
        lower, upper, se = t_bounds(0.5462, 0.0659, 529, 0.999)
        assert se == pytest.approx(0.0029, abs=0.0005)
        assert lower == pytest.approx(0.5370, abs=0.0005)
        assert upper == pytest.approx(0.5553, abs=0.0005)

    def test_reference_fn_column_bounds(self):
        lower, upper, _ = t_bounds(0.5016, 0.0539, 529, 0.999)
        assert lower == pytest.approx(0.4941, abs=0.0005)
        assert upper == pytest.approx(0.5091, abs=0.0005)

    def test_degenerate_sd(self):
        lower, upper, se = t_bounds(0.7, 0.0, 25, 0.999)
        assert (lower, upper, se) == (0.7, 0.7, 0.0)

    def test_unit_normal_case_against_oracle(self):
        # t(0.999, 9)/sqrt(10); the mpmath oracle fixes the digits
        lower, upper, se = t_bounds(0.0, 1.0, 10, 0.999)
        expected = t_quantile_mp(0.999, 9) / math.sqrt(10)
        assert expected == pytest.approx(1.3587692557, abs=1e-9)
        assert upper == pytest.approx(expected, rel=1e-10)
        assert lower == pytest.approx(-expected, rel=1e-10)
        assert se == pytest.approx(1 / math.sqrt(10), rel=1e-12)

    def test_width_strictly_decreasing_in_n(self):
        widths = [
            t_bounds(0.0, 1.0, n, 0.999).upper - t_bounds(0.0, 1.0, n, 0.999).lower
            for n in range(2, 200)
        ]
        assert all(b < a for a, b in zip(widths, widths[1:]))

    def test_negative_sd_rejected(self):
        with pytest.raises(ValueError, match="^sd must be non-negative$"):
            t_bounds(0.5, -0.1, 10)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            t_bounds(0.0, 1.0, 1, 0.999)

    @pytest.mark.parametrize("mean, sd", [(math.nan, 0.1), (0.5, math.inf),
                                          (-math.inf, 0.1), (0.5, math.nan)])
    def test_non_finite_moments_rejected(self, mean, sd):
        # unchecked, they give NaN or infinite bounds
        with pytest.raises(ValueError, match=re.escape(
                f"t bounds need a finite mean and sd, got {mean} and {sd}")):
            t_bounds(mean, sd, 10, 0.999)


# ---------------------------------------------------------------- report

def assert_bounds_hold(report):
    """What ``t_bounds`` makes of every bound: the mean inside, ``std_error`` as
    ``sd / sqrt(n)``, and the two half-widths equal up to rounding (4 ulp of the
    larger bound's magnitude)."""
    for key, b in report.bounds.items():
        assert b.lower <= b.mean <= b.upper, key
        assert b.std_error == b.sd / math.sqrt(b.n), key
        ulp = math.ulp(max(abs(b.lower), abs(b.upper)))
        assert abs((b.upper - b.mean) - (b.mean - b.lower)) <= 4 * ulp, (key, b)


class TestBuildReport:
    def test_large_values_build(self):
        # at 1e4 the half-widths differ by rounding beyond 1e-12
        assert_bounds_hold(build_report([10001.0, 10137.5], [9950.0, 10210.25]))

    def test_bounds_hold_at_every_magnitude_and_spread(self):
        rng = np.random.default_rng(2008)
        for magnitude in 10.0 ** np.arange(13):  # 1 to 1e12
            for spread in magnitude * 10.0 ** np.arange(-3, 4):  # 1e-3 to 1e3 times it
                for _ in range(4):
                    n1, n2 = rng.integers(2, 41, size=2)
                    before = rng.normal(magnitude, spread, n1)
                    after = rng.normal(magnitude, spread, n2)
                    assert_bounds_hold(build_report(before, after))

    def test_identical_subsamples(self):
        sample = list(np.linspace(0.4, 0.6, 20))
        report = build_report(sample, sample)
        assert report.mann_whitney.p == pytest.approx(1.0, abs=1e-12)
        assert report.levene.w == pytest.approx(0.0, abs=1e-12)

    def test_reference_inefficiency_flags(self):
        # whole-period flags recomputed from published moments: one series
        # sits above the random-walk band, the other inside it
        oe = bounds_from_moments(0.5462, 0.0659, 529, 0.999)
        assert oe.inefficient and RANDOM_WALK_H < oe.lower
        fn = bounds_from_moments(0.5016, 0.0539, 529, 0.999)
        assert not fn.inefficient and fn.lower < RANDOM_WALK_H < fn.upper

    def test_flag_equals_literal_predicate(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            mean = rng.uniform(0.4, 0.6)
            sd = rng.uniform(0.01, 0.2)
            n = int(rng.integers(5, 400))
            b = bounds_from_moments(mean, sd, n, 0.99)
            assert b.inefficient == (not b.lower <= 0.5 <= b.upper)

    def test_report_fields_and_bounds(self):
        rng = np.random.default_rng(47)
        before = rng.normal(0.55, 0.05, 60)
        after = rng.normal(0.45, 0.04, 40)
        report = build_report(before, after, level=0.99)
        assert set(report.bounds) == {"whole", "before", "after"}
        assert report.bounds["whole"].n == 100
        assert report.bounds["before"].mean == pytest.approx(before.mean())
        assert report.bounds["after"].sd == pytest.approx(np.std(after))
        for b in report.bounds.values():
            assert b.lower <= b.mean <= b.upper
            assert b.std_error == pytest.approx(b.sd / math.sqrt(b.n), abs=1e-15)

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            build_report([], [1.0, 2.0])

    @pytest.mark.parametrize("before, after, held", [
        ([math.inf, 0.5, 0.6, 0.7], [0.5, 0.6, 0.7], "the first holds inf"),
        ([0.5, 0.6, 0.7], [0.5, math.nan, 0.7], "the second holds nan"),
    ])
    def test_non_finite_value_rejected_before_any_moment(self, before, after, held):
        # unchecked, the sd of an inf warns (an error under pyproject's filterwarnings) first
        with pytest.raises(ValueError, match=f"^The test battery needs finite samples: {held}$"):
            build_report(before, after)

    def test_to_dict_round_trip_values(self):
        report = build_report([0.5, 0.52, 0.48, 0.51], [0.44, 0.47, 0.42])
        d = report.to_dict()
        for side in ("before", "after"):
            assert d["mean"][side] == report.bounds[side].mean
            assert d["std_dev"][side] == report.bounds[side].sd
        assert d["mann_whitney"]["u1"] == report.mann_whitney.u1
        assert d["bounds"]["before"]["n"] == 4

    def test_to_dict_writes_infinite_levene_w_as_null(self):
        report = build_report([0.0, 2.0], [0.0, 20.0])
        assert report.levene.w == math.inf
        d = report.to_dict()
        assert d["levene"] == {"w": None, "p": 0.0, "df_num": 1, "df_den": 2}
