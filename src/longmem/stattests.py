"""Two-sample test battery for before/after Hurst subsamples.

Mann-Whitney location test (exact for small tie-free samples, tie-corrected
normal approximation otherwise), Levene's variance homogeneity test, and
Student-t confidence bounds for the random-walk benchmark check. Student-t
and F tail probabilities go through the regularized incomplete beta function,
never tables.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy import special

__all__ = [
    "MannWhitneyResult",
    "mann_whitney",
    "LeveneResult",
    "levene",
    "TBounds",
    "t_bounds",
    "student_t_quantile",
    "f_sf",
    "SubsampleBounds",
    "bounds_from_moments",
    "TestReport",
    "build_report",
    "RANDOM_WALK_H",
]

# Benchmark Hurst exponent of an uncorrelated (weak-form efficient) series.
RANDOM_WALK_H = 0.5

# Largest pooled size for which the exact Mann-Whitney distribution is used.
EXACT_LIMIT = 16


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class MannWhitneyResult:
    """Both U statistics (u1 for the first sample), the first sample's rank
    sum, and the p-value. ``method`` records which path produced p."""

    u1: float
    u2: float
    rank_sum: float
    p: float
    method: str  # "exact" | "normal"


def _finite_samples(test: str, a: Sequence[float],
                    b: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Both samples as float arrays; a NaN or infinity raises, naming its
    sample, since ranks and deviations would carry it into a plausible p."""
    samples = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    for name, x in zip(("first", "second"), samples):
        bad = x[~np.isfinite(x)]
        if bad.size:
            raise ValueError(f"{test} needs finite samples: the {name} holds {bad[0]}")
    return samples


def _exact_u_counts(n1: int, n2: int) -> np.ndarray:
    """counts[u] = number of rank subsets of size n1 from 1..n1+n2 with U1 = u.

    Built by the classic dynamic program over ranks; U1 ranges 0..n1*n2.
    """
    n = n1 + n2
    max_sum = n1 * (2 * n - n1 + 1) // 2  # sum of the n1 largest ranks
    # counts_by_size[k][s]: subsets of size k with rank sum s
    table = np.zeros((n1 + 1, max_sum + 1), dtype=np.int64)
    table[0, 0] = 1
    for rank in range(1, n + 1):
        for k in range(min(rank, n1), 0, -1):
            table[k, rank:] += table[k - 1, : max_sum + 1 - rank]
    min_sum = n1 * (n1 + 1) // 2
    return table[n1, min_sum : min_sum + n1 * n2 + 1].copy()


def _exact_p(n1: int, n2: int, u1: float) -> float:
    counts = _exact_u_counts(n1, n2)
    u = int(round(u1))  # integer when the pooled sample is tie-free
    u_min = min(u, n1 * n2 - u)
    u_max = n1 * n2 - u_min
    p = (counts[: u_min + 1].sum() + counts[u_max:].sum()) / counts.sum()
    return min(1.0, float(p))


def mann_whitney(a: Sequence[float], b: Sequence[float]) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test of equal location of two independent samples.

    Ranks use midranks for ties. The p-value comes from exact enumeration of
    the U distribution when the pooled size is at most ``EXACT_LIMIT`` and
    there are no ties, otherwise from the normal approximation with
    tie-corrected variance and continuity correction.
    """
    x, y = _finite_samples("Mann-Whitney", a, b)
    n1, n2 = x.size, y.size
    if n1 == 0 or n2 == 0:
        raise ValueError("Mann-Whitney needs non-empty samples")
    pooled = np.concatenate([x, y])
    _, inverse, tie_counts = np.unique(pooled, return_inverse=True, return_counts=True)
    # a tie group fills sorted positions ends - counts + 1 .. ends: their mean is its midrank
    ends = np.cumsum(tie_counts)
    r1 = float((ends - (tie_counts - 1) / 2)[inverse[:n1]].sum())
    u1 = r1 - n1 * (n1 + 1) / 2.0  # pairs won by the first sample, ties half
    u2 = n1 * n2 - u1

    if n1 + n2 <= EXACT_LIMIT and tie_counts.size == pooled.size:
        p = _exact_p(n1, n2, u1)
        return MannWhitneyResult(u1, u2, r1, p, "exact")

    n = n1 + n2
    tie_term = float(np.sum(tie_counts.astype(float) ** 3 - tie_counts))
    sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma2 <= 0:
        # every pooled observation identical: no information against the null
        return MannWhitneyResult(u1, u2, r1, 1.0, "normal")
    z = (max(u1, u2) - n1 * n2 / 2.0 - 0.5) / math.sqrt(sigma2)
    p = min(1.0, 2.0 * _norm_sf(z))
    return MannWhitneyResult(u1, u2, r1, p, "normal")


@dataclass(frozen=True)
class LeveneResult:
    """Levene W with its F-tail p-value; both None when the absolute
    deviations carry no dispersion at all (degenerate samples)."""

    w: float | None
    p: float | None
    df_num: int
    df_den: int


def levene(a: Sequence[float], b: Sequence[float]) -> LeveneResult:
    """Levene test of equal variances via one-way ANOVA on the absolute
    deviations from each sample's mean."""
    x, y = _finite_samples("Levene", a, b)
    if x.size < 2 or y.size < 2:
        raise ValueError("Levene needs at least 2 observations per sample")
    zx = np.abs(x - x.mean())
    zy = np.abs(y - y.mean())
    n1, n2 = x.size, y.size
    zx_bar, zy_bar = float(zx.mean()), float(zy.mean())
    grand = (n1 * zx_bar + n2 * zy_bar) / (n1 + n2)
    between = n1 * (zx_bar - grand) ** 2 + n2 * (zy_bar - grand) ** 2
    within = float(np.sum((zx - zx_bar) ** 2) + np.sum((zy - zy_bar) ** 2))
    df_num, df_den = 1, n1 + n2 - 2
    if within == 0:
        if between == 0:
            return LeveneResult(None, None, df_num, df_den)
        return LeveneResult(math.inf, 0.0, df_num, df_den)
    w = df_den / df_num * between / within
    return LeveneResult(w, f_sf(w, df_num, df_den), df_num, df_den)


def f_sf(w: float, df_num: int, df_den: int) -> float:
    """Upper tail of the F distribution via the regularized incomplete beta."""
    if w < 0:
        return 1.0
    x = df_den / (df_den + df_num * w)
    return float(special.betainc(df_den / 2.0, df_num / 2.0, x))


def student_t_quantile(level: float, df: int) -> float:
    """One-sided Student-t quantile: P(T <= t) = level, for level in (0.5, 1).

    Inverts the regularized incomplete beta representation of the t tail.
    """
    if not 0.5 < level < 1.0:
        raise ValueError("level must lie strictly between 0.5 and 1")
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    z = float(special.betaincinv(df / 2.0, 0.5, 2.0 * (1.0 - level)))
    return math.sqrt(df * (1.0 - z) / z)


class TBounds(NamedTuple):
    lower: float
    upper: float
    std_error: float


def t_bounds(mean: float, sd: float, n: int, level: float = 0.999) -> TBounds:
    """mean +/- t(level, n-1) * sd/sqrt(n), with the one-sided t quantile."""
    if n < 2:
        raise ValueError("t bounds need n >= 2")
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise ValueError(f"t bounds need a finite mean and sd, got {mean} and {sd}")
    if sd < 0:
        raise ValueError("sd must be non-negative")
    se = sd / math.sqrt(n)
    t = student_t_quantile(level, n - 1)
    return TBounds(mean - t * se, mean + t * se, se)


@dataclass(frozen=True)
class SubsampleBounds:
    """Confidence bounds for one subsample's mean Hurst exponent.

    ``inefficient`` is True when the random-walk benchmark 0.5 falls outside
    [lower, upper].
    """

    n: int
    mean: float
    sd: float
    std_error: float
    lower: float
    upper: float
    inefficient: bool


def bounds_from_moments(
    mean: float, sd: float, n: int, level: float = 0.999
) -> SubsampleBounds:
    lower, upper, se = t_bounds(mean, sd, n, level)
    return SubsampleBounds(
        n, mean, sd, se, lower, upper, not lower <= RANDOM_WALK_H <= upper
    )


@dataclass(frozen=True)
class TestReport:
    """Before/after subsample statistics and test outcomes for one series."""

    confidence_level: float
    mann_whitney: MannWhitneyResult
    levene: LeveneResult
    bounds: dict[str, SubsampleBounds]  # keys: whole, before, after

    def to_dict(self) -> dict:
        sides, w = ("before", "after"), self.levene.w
        return {
            "confidence_level": self.confidence_level,
            "mean": {k: self.bounds[k].mean for k in sides},
            "std_dev": {k: self.bounds[k].sd for k in sides},
            "mann_whitney": asdict(self.mann_whitney),
            # JSON has no infinity: a Levene w of inf is written as null
            "levene": {**asdict(self.levene), "w": None if w is None or math.isinf(w) else w},
            "bounds": {k: asdict(b) for k, b in self.bounds.items()},
        }


def build_report(
    before: Sequence[float],
    after: Sequence[float],
    *,
    level: float = 0.999,
) -> TestReport:
    """Assemble the full test battery over before/after Hurst subsamples.

    Bounds are computed for each subsample and for the pooled whole period;
    moments use the population convention.
    """
    x, y = _finite_samples("The test battery", before, after)
    if x.size == 0 or y.size == 0:
        raise ValueError("both subsamples must be non-empty")
    samples = {"whole": np.concatenate([x, y]), "before": x, "after": y}
    bounds = {key: bounds_from_moments(float(v.mean()), float(v.std()), v.size, level)
              for key, v in samples.items()}
    return TestReport(level, mann_whitney(x, y), levene(x, y), bounds)
