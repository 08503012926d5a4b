"""Command line interface: describe, hurst, rolling, test, synth, run."""

from __future__ import annotations

import sys
from dataclasses import asdict, replace
from pathlib import Path

import click

from . import __version__
from .estimators import _whole_series
from .pipeline import (
    _SETTINGS,
    RunConfig,
    _number,
    analyse_series,
    config_from_mapping,
    emit_synth,
    load_config_file,
    parse_input_spec,
    run_each,
    run_pipeline,
)
from .series import describe as describe_values
from .series import log_returns
from .synth import FgnSpec


def _series_args(*names):
    """The INPUTS argument and one flag per named setting, in the order given.

    Flag values stay strings; config_from_mapping reads them.
    """
    def decorate(f):
        for name in reversed(names):
            _, metavar, text = _SETTINGS[name]
            f = click.option("--" + name.replace("_", "-"), metavar=metavar, help=text)(f)
        return click.argument("inputs", nargs=-1)(f)
    return decorate


def _build_config(inputs, config_file=None, **flags) -> RunConfig:
    """The config file's settings, overridden by the flags given, and the inputs."""
    settings = load_config_file(config_file) if config_file is not None else {}
    settings.update((key, value) for key, value in flags.items() if value is not None)
    cfg = config_from_mapping(settings)
    if inputs:
        cfg = replace(cfg, inputs=tuple(parse_input_spec(s) for s in inputs))
    return cfg


def _require_inputs(ctx: click.Context, inputs) -> None:
    if not inputs:
        click.echo(ctx.get_help(), err=True)
        click.echo("\nerror: no input files given", err=True)
        ctx.exit(1)


class _Number(click.ParamType):
    """A ``synth`` number read as ``run`` reads its settings (``_number``): with
    '_' or a character outside ASCII it is a bad setting; click's own int or
    float type reads the rest, and names the option when it cannot."""

    def __init__(self, kind: click.ParamType) -> None:
        self.kind, self.name = kind, kind.name

    def convert(self, value, param, ctx):
        try:
            return _number(value, lambda text: self.kind.convert(text, param, ctx))
        except ValueError as exc:
            raise ValueError(f"bad setting {param.name} = {value!r}: {exc}") from exc


class _Main(click.Group):
    """An unusable configuration (a ValueError) or command line: one ``error:`` line, exit 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(1)
        except click.UsageError as exc:  # format_message() names the option; str() does not
            click.echo(f"error: {exc.format_message()}", err=True)
            ctx.exit(1)


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main() -> None:
    """Long-memory analysis of financial return series.

    Estimates time-varying Hurst exponents over sliding windows (DFA or R/S)
    and runs the before/after-crisis test battery. Input files are CSVs with
    a 'date,price' header; '#' lines are comments.
    """


@main.command("describe")
@_series_args()
@click.pass_context
def describe_cmd(ctx: click.Context, inputs) -> None:
    """Descriptive statistics of each file's log returns."""
    _require_inputs(ctx, inputs)

    def show(prices) -> None:
        stats = describe_values(log_returns(prices).values)
        click.echo(f"{prices.id}:")
        for key, value in asdict(stats).items():
            click.echo(f"  {key}: {value}")

    ctx.exit(run_each(_build_config(inputs).inputs, show))


@main.command("hurst")
@_series_args("estimator", "ladder", "detrend_order")
@click.pass_context
def hurst_cmd(ctx: click.Context, inputs, **flags) -> None:
    """Whole-series Hurst estimate for each file."""
    _require_inputs(ctx, inputs)
    # the whole series is the one window: an unbounded window passes the
    # window rule here, and the estimator applies it to the series length
    cfg = _build_config(inputs, window=str(sys.maxsize), **flags)

    def show(prices) -> None:
        h = _whole_series(log_returns(prices).values, cfg.estimator, cfg.ladder,
                          cfg.detrend_order)
        click.echo(
            f"{prices.id}: h={h.h:.6f} r_squared={h.r_squared:.6f} "
            f"method={h.method} points={len(h.points)}"
        )

    ctx.exit(run_each(cfg.inputs, show))


@main.command("rolling")
@_series_args("estimator", "window", "step", "ladder", "detrend_order", "output_dir")
@click.pass_context
def rolling_cmd(ctx, inputs, **flags):
    """Rolling-window Hurst estimates, written to <label>_rolling.csv."""
    _require_inputs(ctx, inputs)
    ctx.exit(run_pipeline(_build_config(inputs, formats="csv", **flags)))


@main.command("test")
@_series_args("estimator", "window", "step", "ladder", "detrend_order",
              "split_date", "split_by", "confidence_level")
@click.pass_context
def test_cmd(ctx, inputs, **flags):
    """Before/after test battery, printed as a summary per series."""
    _require_inputs(ctx, inputs)
    cfg = _build_config(inputs, **flags)

    def show(prices) -> None:
        analysis = analyse_series(prices, cfg)
        report = analysis.report
        if report is None:
            raise ValueError(analysis.note)
        n_before, n_after = analysis.counts
        mw, lev = report.mann_whitney, report.levene
        click.echo(f"{prices.id}: n_before={n_before} n_after={n_after}")
        before, after = report.bounds["before"].mean, report.bounds["after"].mean
        click.echo(f"  mean before/after: {before:.4f} / {after:.4f}")
        click.echo(f"  mann-whitney: u1={mw.u1:.1f} u2={mw.u2:.1f} p={mw.p:.4g} ({mw.method})")
        w_str = "undefined" if lev.w is None else f"{lev.w:.4f}"
        p_str = "undefined" if lev.p is None else f"{lev.p:.4g}"
        click.echo(f"  levene: w={w_str} p={p_str}")
        for key, b in report.bounds.items():
            click.echo(
                f"  {key}: mean={b.mean:.4f} bounds=({b.lower:.4f}, {b.upper:.4f}) "
                f"inefficient={b.inefficient}"
            )

    ctx.exit(run_each(cfg.inputs, show))


@main.command("synth")
@click.argument("output", type=click.Path(path_type=Path))
@click.option("--h", "h", type=_Number(click.FLOAT), required=True,
              help="Target Hurst exponent in (0,1).")
@click.option("--n", type=_Number(click.INT), required=True,
              help="Number of noise points (file gets n+1 prices).")
@click.option("--sigma", type=_Number(click.FLOAT), default="1.0", show_default=True,
              help="Noise scale.")
@click.option("--seed", type=_Number(click.INT), default="0", show_default=True,
              help="Generator seed.")
def synth_cmd(output, h, n, sigma, seed) -> None:
    """Write a synthetic fGn-derived price CSV for pipeline validation."""
    path = emit_synth(FgnSpec(h=h, n=n, sigma=sigma, seed=seed), output)
    click.echo(f"wrote {path}")


@main.command("run")
@click.option("--config", "config_file", type=click.Path(exists=True, path_type=Path),
              default=None, help="Flat key=value config file; flags override it.")
@_series_args("estimator", "window", "step", "ladder", "detrend_order", "split_date",
              "split_by", "confidence_level", "output_dir", "formats")
@click.pass_context
def run_cmd(ctx, inputs, config_file, **flags):
    """Full pipeline: stats, rolling estimates, and test report per series."""
    cfg = _build_config(inputs, config_file, **flags)
    _require_inputs(ctx, cfg.inputs)
    ctx.exit(run_pipeline(cfg))


if __name__ == "__main__":
    main()
