"""Acceptance gate: one test per release criterion, each at its stated
tolerance and runtime budget. Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion PASS/FAIL lines.
"""

import io
import itertools
import math
import subprocess
import sys
import time
from datetime import date, timedelta

import numpy as np

from longmem.estimators import (
    BlockLadder,
    dfa_fluctuation,
    dfa_profile,
    estimate_from_points,
    hurst_dfa,
    hurst_rs,
)
from longmem.pipeline import SYNTH_EPOCH, emit_synth
from longmem.rolling import RollingProtocol, rolling_hurst, split_at, window_offsets
from longmem.series import ReturnSeries, jarque_bera, log_returns
from longmem.stattests import mann_whitney, t_bounds
from longmem.synth import FgnSpec, generate_fgn, powerlaw_fixture

PAPER_LADDER = BlockLadder((4, 8, 16, 32, 64, 128))


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ------------------------------------------------------------ criterion 1

def test_criterion_1_t_bound_arithmetic():
    t_bounds(0.5, 0.1, 10, 0.999)  # warm the special-function path
    start = time.perf_counter()
    lo_oe, hi_oe, se_oe = t_bounds(0.5462, 0.0659, 529, 0.999)
    lo_fn, hi_fn, _ = t_bounds(0.5016, 0.0539, 529, 0.999)
    elapsed = time.perf_counter() - start
    ok = (
        abs(se_oe - 0.0029) <= 0.0005
        and abs(lo_oe - 0.5370) <= 0.0005
        and abs(hi_oe - 0.5553) <= 0.0005
        and abs(lo_fn - 0.4941) <= 0.0005
        and abs(hi_fn - 0.5091) <= 0.0005
        and elapsed < 1e-3
    )
    report(
        "criterion-1 t-bound arithmetic",
        ok,
        f"se={se_oe:.4f} first=({lo_oe:.4f},{hi_oe:.4f}) "
        f"second=({lo_fn:.4f},{hi_fn:.4f}) in {elapsed*1e6:.0f}us",
    )


# ------------------------------------------------------------ criterion 2

def test_criterion_2_jarque_bera_arithmetic():
    start = time.perf_counter()
    jb = jarque_bera(0.0042, 7.8733, 4203)
    elapsed = time.perf_counter() - start
    ok = 4118 <= jb <= 4201 and elapsed < 1e-3
    report("criterion-2 jarque-bera arithmetic", ok,
           f"jb={jb:.1f} in [4118, 4201] in {elapsed*1e6:.0f}us")


# ------------------------------------------------------------ criterion 3

def test_criterion_3_estimator_recovery():
    dfa_ladder = BlockLadder((8, 16, 32, 64, 128, 256))
    rs_ladder = BlockLadder((32, 64, 128, 256, 512))
    seeds = range(50)
    start = time.perf_counter()
    lines = []
    ok = True
    for h in (0.3, 0.5, 0.7):
        series = [generate_fgn(FgnSpec(h=h, n=10_000, seed=s)) for s in seeds]
        dfa_h = np.array([hurst_dfa(x, dfa_ladder).h for x in series])
        rs_h = np.array([hurst_rs(x, rs_ladder).h for x in series])
        dfa_ok = abs(dfa_h.mean() - h) <= 0.05 and dfa_h.std() <= 0.05
        rs_ok = abs(rs_h.mean() - h) <= 0.10
        ok = ok and dfa_ok and rs_ok
        lines.append(
            f"H={h}: dfa={dfa_h.mean():.4f}(sd {dfa_h.std():.4f}) rs={rs_h.mean():.4f}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 60.0
    report("criterion-3 estimator recovery", ok,
           "; ".join(lines) + f"; {elapsed:.1f}s")


# ------------------------------------------------------------ criterion 4

def dfa_fluctuation_oracle(profile, m, order):
    nwin = profile.size // m
    t = np.arange(m, dtype=float)
    total = 0.0
    for w in range(nwin):
        seg = profile[w * m : (w + 1) * m]
        coeffs = np.polyfit(t, seg, order)
        total += float(np.sum((seg - np.polyval(coeffs, t)) ** 2))
    return math.sqrt(total / (nwin * m))


def test_criterion_4_dfa_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(32, 513))
        profile = dfa_profile(rng.standard_normal(n))
        order = int(rng.integers(1, 3))
        for m in (4, 8, 16, 32, 64, 128):
            if m > n // 2 or m < order + 2:
                continue
            mine = dfa_fluctuation(profile, m, order)
            oracle = dfa_fluctuation_oracle(profile, m, order)
            worst = max(worst, abs(mine - oracle) / oracle)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed <= 10.0 and checked > 300
    report("criterion-4 dfa oracle equivalence", ok,
           f"{checked} (series,size) pairs, worst rel diff {worst:.2e}, {elapsed:.1f}s")


# ------------------------------------------------------------ criterion 5

def mw_exact_oracle(a, b):
    pooled = sorted(list(a) + list(b))
    n1, n2 = len(a), len(b)
    rank = {v: i + 1 for i, v in enumerate(pooled)}
    u_obs = sum(rank[v] for v in a) - n1 * (n1 + 1) / 2
    u_lo, u_hi = min(u_obs, n1 * n2 - u_obs), max(u_obs, n1 * n2 - u_obs)
    hits = total = 0
    for combo in itertools.combinations(range(1, n1 + n2 + 1), n1):
        u = sum(combo) - n1 * (n1 + 1) / 2
        total += 1
        if u <= u_lo or u >= u_hi:
            hits += 1
    return min(1.0, hits / total)


def test_criterion_5_mann_whitney_exactness():
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        pool = rng.permutation(10_000)[: 2 * n].astype(float)
        a, b = pool[:n], pool[n:]
        res = mann_whitney(a, b)
        assert res.method == "exact"
        worst = max(worst, abs(res.p - mw_exact_oracle(a, b)))
    ok = worst <= 1e-12
    report("criterion-5 mann-whitney exactness", ok,
           f"100 tie-free batteries, worst |dp| {worst:.2e}")


# ------------------------------------------------------------ criterion 6

def test_criterion_6_rolling_count_law():
    rng = np.random.default_rng(66)
    ladder = BlockLadder((4, 8, 16))
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(64, 481))
        window = int(rng.integers(32, n + 1))
        step = int(rng.integers(1, 41))
        values = rng.standard_normal(n)
        dates = tuple(date(2000, 1, 1) + timedelta(days=i) for i in range(n))
        rets = ReturnSeries("prop", dates, tuple(float(v) for v in values))
        proto = RollingProtocol(window=window, step=step, estimator="rs", ladder=ladder)
        result = rolling_hurst(rets, proto)
        assert result.h.size == (n - window) // step + 1
        checked += 1
    # the reference shape: 4203 returns, window 500, step 7
    shape_count = len(list(window_offsets(4203, 500, 7)))
    ok = checked == 1000 and shape_count == 530
    report("criterion-6 rolling count law", ok,
           f"1000 random triples hold; N=4203,W=500,s=7 gives {shape_count}")


def test_criterion_6_count_note_in_report_header(tmp_path):
    # the emitted rolling CSV documents the counting rule and the one-off
    # convention difference
    path = emit_synth(FgnSpec(h=0.5, n=1200, seed=4), tmp_path / "shape.csv")
    from longmem.pipeline import RunConfig, run_pipeline

    cfg = RunConfig(
        inputs=((path, "shape"),),
        output_dir=tmp_path / "out",
        split_date=date(2001, 6, 1),
    )
    assert run_pipeline(cfg, log=io.StringIO()) == 0
    text = (tmp_path / "out" / "shape_rolling.csv").read_text()
    ok = "floor((N - window) / step) + 1" in text and "529" in text and "530" in text
    report("criterion-6b count rule documented", ok, "rolling CSV header carries rule + note")


# ------------------------------------------------------------ criterion 7

def test_criterion_7_power_law_fixtures():
    ladder = PAPER_LADDER
    worst = 0.0
    for h in (0.0, 0.37, 0.5, 1.0):
        points = powerlaw_fixture(h, ladder)
        est_dfa = estimate_from_points(points, method="dfa", ladder=ladder, detrend_order=1)
        est_rs = estimate_from_points(points, method="rs", ladder=ladder)
        worst = max(worst, abs(est_dfa.h - h), abs(est_rs.h - h))
    ok = worst <= 1e-10
    report("criterion-7 power-law fixtures", ok,
           f"H in {{0, 0.37, 0.5, 1}}, worst |dh| {worst:.2e}")


# ------------------------------------------------------------ criterion 8

def test_criterion_8_end_to_end_determinism(tmp_path):
    src = emit_synth(FgnSpec(h=0.7, n=1200, seed=12), tmp_path / "input.csv")
    outs = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        proc = subprocess.run(
            [
                sys.executable, "-m", "longmem.cli", "run", str(src),
                "--output-dir", str(out), "--split-date", "2001-06-01",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = ["input_stats.json", "input_report.json", "input_rolling.csv"]
    same = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
    )
    report("criterion-8 end-to-end determinism", same,
           f"two `run` invocations agree byte-for-byte on {len(names)} files")


# ------------------------------------------------------------ criterion 9

def test_criterion_9_regime_change_classification():
    start = time.perf_counter()
    first = generate_fgn(FgnSpec(h=0.55, n=5000, seed=1))
    second = generate_fgn(FgnSpec(h=0.45, n=5000, seed=2))
    noise = np.concatenate([first, second])
    # prices via exponential integration, as the synthetic file writer does
    dates = tuple(SYNTH_EPOCH + timedelta(days=i) for i in range(noise.size + 1))
    log_prices = np.concatenate([[0.0], np.cumsum(noise / 100.0)])
    from longmem.series import PriceSeries

    prices = PriceSeries("regime", dates, tuple(float(p) for p in np.exp(log_prices)))
    returns = log_returns(prices)
    result = rolling_hurst(returns, RollingProtocol())  # defaults: 500/7/dfa-1
    splice_date = returns.dates[5000]  # first return drawn from the second half
    h_before, h_after = split_at(result, splice_date)
    mw = mann_whitney(h_before, h_after)
    elapsed = time.perf_counter() - start
    ok = (
        h_before.mean() > 0.5
        and h_after.mean() < 0.5
        and mw.p < 0.01
        and elapsed <= 120.0
    )
    report(
        "criterion-9 regime change",
        ok,
        f"before mean {h_before.mean():.4f} (n={h_before.size}), "
        f"after mean {h_after.mean():.4f} (n={h_after.size}), "
        f"mw p={mw.p:.2e}, {elapsed:.1f}s",
    )
