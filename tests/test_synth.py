import math
import sys

import numpy as np
import pytest

from longmem import synth
from longmem.estimators import BlockLadder, hurst_dfa
from longmem.stattests import mann_whitney
from longmem.synth import (
    FgnSpec,
    fgn_autocovariance,
    generate_fgn,
    generate_gaussian,
    powerlaw_fixture,
)


def conditional_fgn(spec):
    """Distribution oracle for generate_fgn: sequential conditional-Gaussian
    sampling via the Durbin-Levinson recursion on the target autocovariance.
    O(n^2) but embedding-free."""
    n = spec.n
    gamma = fgn_autocovariance(spec.h, np.arange(n), spec.sigma)
    rng = np.random.default_rng(spec.seed)
    noise = rng.standard_normal(n)

    x = np.empty(n)
    x[0] = math.sqrt(gamma[0]) * noise[0]
    phi = np.zeros(n - 1)
    v = gamma[0]
    for t in range(1, n):
        if t == 1:
            kappa = gamma[1] / gamma[0]
        else:
            kappa = (gamma[t] - phi[: t - 1] @ gamma[t - 1 : 0 : -1]) / v
        prev = phi[: t - 1][::-1].copy()
        phi[: t - 1] -= kappa * prev
        phi[t - 1] = kappa
        v *= 1.0 - kappa * kappa
        if v <= 0:  # numerically pinned; fGn is purely non-deterministic
            v = np.finfo(float).tiny
        mean = phi[:t] @ x[t - 1 :: -1][:t]
        x[t] = mean + math.sqrt(v) * noise[t]
    return x


def sample_autocov(x, k):
    # the generators produce zero-mean processes; skipping the mean
    # subtraction avoids its O(n^(2H-2)) bias, which at H=0.7 is the same
    # order as the sampling error this test measures against
    return float(np.mean(x[: x.size - k] * x[k:])) if k else float(np.mean(x * x))


class TestFgnSpec:
    @pytest.mark.parametrize("h", [0.0, 1.0, -0.2, 1.7])
    def test_h_strictly_inside_unit_interval(self, h):
        with pytest.raises(ValueError, match="strictly in"):
            FgnSpec(h=h, n=100)

    def test_minimum_length(self):
        with pytest.raises(ValueError, match="n >= 2"):
            FgnSpec(h=0.5, n=1)

    def test_positive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            FgnSpec(h=0.5, n=10, sigma=0.0)

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match="^sigma must be positive and finite, got "):
            FgnSpec(h=0.5, n=10, sigma=sigma)

    @pytest.mark.parametrize("n", [2, 50, 5000])
    def test_sigma_keeps_the_covariance_sum_finite(self, n):
        limit = math.sqrt(sys.float_info.max / (2 * n))
        assert np.all(np.isfinite(generate_fgn(FgnSpec(h=0.9, n=n, sigma=limit))))
        with pytest.raises(ValueError, match=f"^sigma .* too large for n={n}: "):
            FgnSpec(h=0.9, n=n, sigma=math.nextafter(limit, math.inf))


class TestGenerateFgn:
    def test_deterministic_given_seed(self):
        spec = FgnSpec(h=0.7, n=512, seed=99)
        assert np.array_equal(generate_fgn(spec), generate_fgn(spec))

    def test_distinct_seeds_differ(self):
        a = generate_fgn(FgnSpec(h=0.7, n=256, seed=1))
        b = generate_fgn(FgnSpec(h=0.7, n=256, seed=2))
        assert not np.array_equal(a, b)

    def test_half_is_white_noise(self):
        # gamma(k>=1) vanishes identically at h=0.5
        gamma = fgn_autocovariance(0.5, range(1, 10))
        assert np.allclose(gamma, 0.0, atol=1e-12)
        x = generate_fgn(FgnSpec(h=0.5, n=100_000, seed=0))
        lag1 = sample_autocov(x, 1) / sample_autocov(x, 0)
        assert abs(lag1) <= 0.01

    def test_persistent_lag_one_autocovariance(self):
        # gamma(1) = 2^0.4 - 1 at h=0.7, sigma=1
        target = 2.0**0.4 - 1.0
        assert fgn_autocovariance(0.7, [1])[0] == pytest.approx(target, rel=1e-12)
        x = generate_fgn(FgnSpec(h=0.7, n=100_000, seed=1))
        assert sample_autocov(x, 1) == pytest.approx(target, abs=0.02)

    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_autocovariance_profile_within_three_se(self, h):
        # mean sample autocovariance across independent seeds vs the target,
        # tolerance from the across-seed standard error
        seeds = range(100, 112)
        lags = range(6)
        estimates = np.array(
            [[sample_autocov(generate_fgn(FgnSpec(h=h, n=100_000, seed=s)), k)
              for k in lags] for s in seeds]
        )
        target = fgn_autocovariance(h, lags)
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(len(seeds))
        assert np.all(np.abs(mean - target) <= 3.0 * se)

    def test_sigma_scales_variance(self):
        x = generate_fgn(FgnSpec(h=0.6, n=50_000, sigma=2.0, seed=5))
        assert sample_autocov(x, 0) == pytest.approx(4.0, rel=0.05)

    def test_conditional_path_matches_target_covariance(self):
        seeds = range(10)
        estimates = np.array(
            [
                [
                    sample_autocov(conditional_fgn(FgnSpec(h=0.7, n=4096, seed=s)), k)
                    for k in range(4)
                ]
                for s in seeds
            ]
        )
        target = fgn_autocovariance(0.7, range(4))
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(len(seeds))
        assert np.all(np.abs(mean - target) <= 3.5 * se)

    def test_paths_agree_in_dfa_distribution(self):
        ladder = BlockLadder((4, 8, 16, 32, 64, 128))
        h_circ, h_cond = [], []
        for s in range(1000, 1050):
            spec_c = FgnSpec(h=0.6, n=1024, seed=s)
            spec_h = FgnSpec(h=0.6, n=1024, seed=s + 50)
            h_circ.append(hurst_dfa(generate_fgn(spec_c), ladder).h)
            h_cond.append(hurst_dfa(conditional_fgn(spec_h), ladder).h)
        res = mann_whitney(h_circ, h_cond)
        assert res.p > 0.01

    @pytest.mark.parametrize("n", [2, 3, 10, 100, 1000, 10_000])
    def test_embedding_accepted_across_h(self, n):
        # no fallback exists, so every H must embed
        for h in np.arange(1, 100) / 100:
            assert generate_fgn(FgnSpec(h=float(h), n=n)).shape == (n,)

    def test_rejected_embedding_raises(self, monkeypatch):
        monkeypatch.setattr(synth, "EIG_TOL", -1.0)
        with pytest.raises(ValueError, match="not non-negative definite"):
            generate_fgn(FgnSpec(h=0.7, n=16))


class TestGenerateGaussian:
    def test_law_of_large_numbers(self):
        x = generate_gaussian(100_000, sigma=1.0, seed=3)
        assert abs(float(x.mean())) <= 0.02

    def test_deterministic(self):
        assert np.array_equal(generate_gaussian(64, seed=8), generate_gaussian(64, seed=8))

    def test_null_recovery_with_moderate_scales(self):
        # sizes 8..256 keep the small-block DFA-1 bias negligible
        ladder = BlockLadder((8, 16, 32, 64, 128, 256))
        hs = [hurst_dfa(generate_gaussian(10_000, seed=s), ladder).h for s in range(50)]
        assert 0.47 <= float(np.mean(hs)) <= 0.53

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_gaussian(0)
        with pytest.raises(ValueError):
            generate_gaussian(10, sigma=-1.0)


class TestPowerlawFixture:
    def test_flat(self):
        assert powerlaw_fixture(0.0, (4, 8, 16)) == [(4, 1.0), (8, 1.0), (16, 1.0)]

    def test_linear(self):
        assert powerlaw_fixture(1.0, (4, 8)) == [(4, 4.0), (8, 8.0)]

    def test_accepts_ladder(self):
        lad = BlockLadder((4, 8, 16))
        assert powerlaw_fixture(0.5, lad) == [(4, 2.0), (8, 8.0**0.5), (16, 4.0)]
