"""Synthetic ground-truth generators for validating the Hurst estimators.

Fractional Gaussian noise comes from circulant embedding of the target
autocovariance (Davies & Harte 1987), exact in distribution because the fGn
embedding is non-negative definite (Craigmile 2003). All draws go through
numpy's seeded PCG64 generator so batches replay exactly; parallel batches
should derive seeds as base_seed + index.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .estimators import _integer, _real

__all__ = [
    "GENERATOR_ID",
    "FgnSpec",
    "fgn_autocovariance",
    "generate_fgn",
    "generate_gaussian",
    "powerlaw_fixture",
]

GENERATOR_ID = "numpy.random.Generator(PCG64)"

# Embedding eigenvalues above -EIG_TOL * max(eig) are rounding noise and get
# clamped to zero; anything more negative is an error.
EIG_TOL = 1e-9


@dataclass(frozen=True)
class FgnSpec:
    """Parameters of one fractional Gaussian noise realization."""

    h: float
    n: int
    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, read in (("h", _real), ("n", _integer), ("sigma", _real), ("seed", _integer)):
            object.__setattr__(self, name, read(name, getattr(self, name)))
        if not 0.0 < self.h < 1.0:
            raise ValueError(f"hurst exponent must lie strictly in (0, 1), got {self.h}")
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.seed < 0:  # numpy's refusal names neither the setting nor the value
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.sigma < math.inf:  # a nan or inf scale writes nan prices
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        # the embedding's eigenvalues are sums of 2n covariances of at most sigma**2
        if self.sigma > math.sqrt(sys.float_info.max / (2 * self.n)):
            raise ValueError(f"sigma {self.sigma} too large for n={self.n}: the covariance "
                             "sum 2 n sigma**2 leaves the float range")


def fgn_autocovariance(h: float, lags: Sequence[int], sigma: float = 1.0) -> np.ndarray:
    """Target autocovariance gamma(k) = sigma^2/2 (|k+1|^2H - 2|k|^2H + |k-1|^2H)."""
    k = np.asarray(lags, dtype=float)
    two_h = 2.0 * h
    return 0.5 * sigma**2 * (
        np.abs(k + 1) ** two_h - 2.0 * np.abs(k) ** two_h + np.abs(k - 1) ** two_h
    )


def generate_fgn(spec: FgnSpec) -> np.ndarray:
    """Stationary Gaussian sequence with the fGn autocovariance for spec.h.

    Raises ValueError if the circulant embedding has materially negative
    eigenvalues; for fGn that is not known to happen at any H or n.
    """
    n = spec.n
    gamma = fgn_autocovariance(spec.h, np.arange(n + 1), spec.sigma)
    # first row of the 2n circulant: gamma(0..n) then mirrored gamma(n-1..1)
    row = np.concatenate([gamma, gamma[n - 1 : 0 : -1]])
    eig = np.fft.fft(row).real
    floor = -EIG_TOL * eig.max()
    if eig.min() < floor:
        raise ValueError(
            f"circulant embedding not non-negative definite "
            f"(min eigenvalue {eig.min():.3e})"
        )
    eig = np.where(eig < 0, 0.0, eig)

    rng = np.random.default_rng(spec.seed)
    ends = rng.standard_normal(2)
    pairs = rng.standard_normal((n - 1, 2))
    z = np.zeros(2 * n, dtype=complex)
    z[0] = ends[0]
    z[n] = ends[1]
    z[1:n] = (pairs[:, 0] + 1j * pairs[:, 1]) / math.sqrt(2.0)
    z[n + 1 :] = np.conj(z[1:n][::-1])
    return np.sqrt(2 * n) * np.fft.ifft(np.sqrt(eig) * z).real[:n]


def generate_gaussian(n: int, sigma: float = 1.0, seed: int = 0) -> np.ndarray:
    """I.i.d. normal draws, deterministic given the seed."""
    n, seed = _integer("n", n), _integer("seed", seed)
    if n < 1:
        raise ValueError("need n >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return np.random.default_rng(seed).standard_normal(n) * sigma


def powerlaw_fixture(h: float, sizes: Iterable[int]) -> list[tuple[int, float]]:
    """Exact power-law points (m, m^h) for exercising the log-log regression."""
    return [(int(m), float(m) ** h) for m in sizes]

