"""Time-varying long-range dependence estimation for financial return series."""

from .estimators import (
    DEFAULT_LADDER_SIZES,
    BlockLadder,
    HurstEstimate,
    dfa_fluctuation,
    dfa_profile,
    estimate_from_points,
    fit_power_law,
    hurst_dfa,
    hurst_rs,
)
from .pipeline import RunConfig, emit_synth, ingest_csv, run_pipeline
from .rolling import (
    RollingProtocol,
    RollingResult,
    rolling_hurst,
    split_at,
)
from .series import (
    DescriptiveStats,
    PriceSeries,
    ReturnSeries,
    describe,
    jarque_bera,
    log_returns,
)
from .stattests import (
    TestReport,
    build_report,
    levene,
    mann_whitney,
    t_bounds,
)
from .synth import FgnSpec, generate_fgn, generate_gaussian, powerlaw_fixture

__version__ = "0.1.0"  # the one statement of the version; pyproject.toml reads it

__all__ = [
    "DEFAULT_LADDER_SIZES",
    "BlockLadder",
    "HurstEstimate",
    "dfa_fluctuation",
    "dfa_profile",
    "estimate_from_points",
    "fit_power_law",
    "hurst_dfa",
    "hurst_rs",
    "RunConfig",
    "emit_synth",
    "ingest_csv",
    "run_pipeline",
    "RollingProtocol",
    "RollingResult",
    "rolling_hurst",
    "split_at",
    "DescriptiveStats",
    "PriceSeries",
    "ReturnSeries",
    "describe",
    "jarque_bera",
    "log_returns",
    "TestReport",
    "build_report",
    "levene",
    "mann_whitney",
    "t_bounds",
    "FgnSpec",
    "generate_fgn",
    "generate_gaussian",
    "powerlaw_fixture",
]
