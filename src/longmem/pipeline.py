"""CSV ingestion, run configuration, and the end-to-end analysis pipeline.

One input file yields three outputs in the configured directory:
``<label>_stats.json`` (descriptive statistics of the returns and of the
rolling Hurst estimates), ``<label>_rolling.csv`` (the per-window estimates),
and ``<label>_report.json`` (the before/after test battery). A series'
files are written whole before any replaces its predecessor, and runs are
byte-for-byte deterministic.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import asdict, dataclass
from datetime import date as Date
from pathlib import Path

import numpy as np

from .rolling import (
    WINDOW_COUNT_RULE,
    RollingProtocol,
    RollingResult,
    rolling_hurst,
    split_at,
)
from .series import DescriptiveStats, PriceSeries, describe, log_returns
from .stattests import TestReport, build_report
from .synth import GENERATOR_ID, FgnSpec, generate_fgn

__all__ = [
    "RunConfig",
    "ingest_csv",
    "emit_synth",
    "run_pipeline",
    "run_each",
    "SeriesAnalysis",
    "analyse_series",
    "process_series",
    "load_config_file",
    "config_from_mapping",
    "parse_input_spec",
    "DEFAULT_SPLIT_DATE",
    "SYNTH_EPOCH",
]

DEFAULT_SPLIT_DATE = Date(2008, 9, 15)

# First price date of generated synthetic series; one observation per day.
SYNTH_EPOCH = Date(2000, 1, 3)

COUNT_NOTE = (
    "a 4203-return series at window 500, step 7 yields 530 windows under this "
    "rule; endpoint conventions that drop the final complete window yield 529"
)


@dataclass(frozen=True)
class RunConfig(RollingProtocol):
    """Full pipeline configuration: the rolling protocol it extends (two-year
    window of 500 datapoints advanced by 7, DFA-1 over the octave ladder),
    then the inputs, the split (2008-09-15), the 0.999 confidence level and
    the outputs."""

    inputs: tuple[tuple[Path, str], ...] = ()
    split_date: Date = DEFAULT_SPLIT_DATE
    split_by: str = "start"
    confidence_level: float = 0.999
    output_dir: Path = Path(".")
    formats: frozenset[str] = frozenset({"json", "csv"})

    def __post_init__(self) -> None:
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        object.__setattr__(
            self,
            "inputs",
            tuple((Path(p), str(label)) for p, label in self.inputs),
        )
        object.__setattr__(self, "formats", frozenset(self.formats))
        # a label names the output files and is written verbatim into the CSV
        # header, the JSON and each stderr line; two inputs under one label
        # would write the same output files
        seen: dict[str, Path] = {}
        for path, label in self.inputs:
            if not label:
                raise ValueError(f"empty label in input spec {f'{path}:'!r}")
            if re.search(r"[\x00-\x1f\x7f]", label):
                raise ValueError(f"bad label {label!r}: it holds a control character")
            if "/" in label or os.sep in label:
                raise ValueError(f"bad label {label!r}: it holds a path separator")
            if label in seen:
                raise ValueError(f"duplicate label {label!r}: {seen[label]} and {path}")
            seen[label] = path
        if not self.formats <= {"json", "csv"}:
            raise ValueError(f"unknown formats: {sorted(self.formats - {'json', 'csv'})}")
        if not self.formats:
            raise ValueError("at least one output format is required")
        if not 0.5 < self.confidence_level < 1.0:
            raise ValueError("confidence_level must lie in (0.5, 1)")
        if self.split_by not in ("start", "end"):
            raise ValueError("split_by must be 'start' or 'end'")
        super().__post_init__()


def parse_input_spec(spec: str) -> tuple[Path, str]:
    """``path`` or ``path:label``; the default label is the file stem. RunConfig
    checks the label."""
    path_part, sep, label = spec.rpartition(":")
    if sep and path_part and "/" not in label and os.sep not in label:
        return Path(path_part), label
    return Path(spec), Path(spec).stem


def load_config_file(path: Path) -> dict[str, str]:
    """Flat ``key = value`` config format in UTF-8 (a leading byte order mark
    is ignored); '#' starts a comment line, and a key may appear once. Lines
    end where the price reader ends them, at LF, CRLF or a lone CR, and lines,
    keys and values shed only the ASCII padding a price cell may carry."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip(_PAD)
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip(_PAD)
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r} "
                             f"(first on line {first_line[key]})")
        first_line[key] = lineno
        values[key] = value.strip(_PAD)
    return values


def _iso_date(text: str) -> Date:
    """A ``YYYY-MM-DD`` date, the one form ``date.fromisoformat`` takes on every
    supported Python (3.11 also takes ``20010103`` and ``2001-W01-2``); it
    checks the digits once the shape is right."""
    if len(text) != 10 or not text.isascii() or text[4] != "-" or text[7] != "-":
        raise ValueError(f"expected YYYY-MM-DD, got {text!r}")
    return Date.fromisoformat(text)


def _number(text: str, kind: type = int) -> int | float:
    """``kind(text)``, refusing the '_' and non-ASCII digits int() and float() take."""
    if not text.isascii() or "_" in text:
        raise ValueError("a number takes ASCII characters only, and no '_'")
    return kind(text)


def _items(value: str) -> list[str]:
    return [s.strip(_PAD) for s in value.split(",") if s.strip(_PAD)]


# One entry per RunConfig field: how the field is read from its setting
# string, then the metavar and help of its CLI flag (None: no flag).
_SETTINGS = {
    "inputs": (lambda v: tuple(parse_input_spec(s) for s in _items(v)), None, None),
    "estimator": (str.lower, "dfa|rs", "Hurst estimator, case-insensitive [default: dfa]."),
    "window": (_number, "INT", "Sliding window length in datapoints [default: 500]."),
    "step": (_number, "INT", "Window advance in datapoints [default: 7]."),
    "ladder": (lambda v: tuple(map(_number, v.split(","))), "INTS",
               "Comma-separated block sizes [default: 4,8,16,32,64,128]."),
    "detrend_order": (_number, "INT", "DFA polynomial order [default: 1]."),
    "split_date": (_iso_date, "DATE",
                   "YYYY-MM-DD date splitting the subsamples [default: 2008-09-15]."),
    "split_by": (str, "start|end", "Classify windows by start or end date [default: start]."),
    "confidence_level": (lambda v: _number(v, float), "FLOAT", "One-sided t confidence "
                         "level, in (0.5, 1), for the bounds [default: 0.999]."),
    "output_dir": (Path, "PATH", "Directory for report files [default: .]."),
    "formats": (lambda v: frozenset(_items(v)), "LIST",
                "Comma-separated subset of json,csv [default: json,csv]."),
}


def config_from_mapping(mapping: dict[str, str]) -> RunConfig:
    """A RunConfig from flat string settings (config file fields or flags), _PAD stripped."""
    unknown = set(mapping) - _SETTINGS.keys()
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs: dict = {}
    for key, value in mapping.items():
        try:
            kwargs[key] = _SETTINGS[key][0](value.strip(_PAD))
        except ValueError as exc:
            raise ValueError(f"bad setting {key} = {value!r}: {exc}") from exc
    return RunConfig(**kwargs)


# ASCII whitespace, the only padding a line, cell or setting may carry (a bare
# ``str.strip()`` would also take NBSP and U+3000)
_PAD = " \t\n\r\x0b\x0c"

# Characters (bytes, in an ASCII file) of a price file's body read at a time, each
# read then finished with the rest of the line it stops in.
BLOCK = 1 << 14

# A block holding any of these bytes goes to the row parser: control bytes,
# space, quotes, '#', '_' and every byte outside ASCII.
_ROW_PARSER_ONLY = bytes([*range(10), *range(11, 33), *b'"#_', *range(127, 256)])

# Least value and span above it of each byte of a date cell with the comma
# after it, ``YYYY-MM-DD,``: a digit spans 9 above '0', a separator none.
_DATE_LOW = np.frombuffer(b"0000-00-00,", np.uint8)
_DATE_SPAN = np.array([9, 9, 9, 9, 0, 9, 9, 0, 9, 9, 0], np.uint8)
_DATE_MIN = np.datetime64(Date.min, "D")  # day 1 of Date.toordinal


def ingest_csv(path: Path | str, label: str | None = None) -> PriceSeries:
    """Read a dated price CSV into a PriceSeries.

    The header row must name ``date`` and ``price`` columns; '#' lines are
    comments; a leading UTF-8 byte order mark is ignored. Rows must be
    dated ``YYYY-MM-DD``, strictly increasing, with positive ASCII decimal prices;
    violations are rejected with the physical row number.

    The file is decoded once, with LF, CRLF and a lone CR each read as LF: the
    lines up to the header go one at a time to the row parser, then the body
    ``BLOCK`` characters at a time, each read on to the end of its line. A clean
    block (ASCII, no quotes, padding, comments or blank lines, one cell per header
    cell on every row, its first date after the last one read) is checked with array
    operations; any other goes through the row parser, which accepts every other
    form and raises every error.
    """
    path = Path(path)
    label = path.stem if label is None else label
    row, layout = 0, None  # lines read, and the header's date and price columns and width
    parts: list[tuple[np.ndarray, np.ndarray]] = []  # dates and prices, block by block
    # an undecodable byte comes through as a lone surrogate, reported with its row
    with path.open(encoding="utf-8-sig", errors="surrogateescape") as fh:
        while layout is None:
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}: no data rows")
            row, layout = _read_rows(line, path, row, layout, parts)
        while block := fh.read(BLOCK) + fh.readline():
            parsed = None
            if len(block) < csv.field_size_limit():  # so no cell can be over the limit
                parsed = _parse_block(block if block.endswith("\n") else block + "\n", *layout)
            if parsed is None or (parts and parsed[0][0] <= parts[-1][0][-1]):
                row, layout = _read_rows(block, path, row, layout, parts)
            else:
                parts.append(parsed)
                row += len(parsed[0])
    dates, prices = map(np.concatenate, zip(*parts)) if parts else ((), ())
    del parts  # before PriceSeries copies the joined arrays
    return PriceSeries(label, dates, prices)


def _header(line: str) -> tuple[int, int, int]:
    """Date column, price column and cell count of a header line."""
    columns = [c.strip(_PAD).lower() for c in next(csv.reader([line]))]
    if "date" not in columns or "price" not in columns:
        raise ValueError("header must name 'date' and 'price' columns")
    return columns.index("date"), columns.index("price"), len(columns)


def _read_rows(block: str, path: Path, row: int, layout: tuple[int, int, int] | None,
               parts: list) -> tuple[int, tuple[int, int, int] | None]:
    """The row parser: the lines of ``block``, whole lines of the file after its
    first ``row``, one at a time. It reads the header while ``layout`` is None
    and appends the rows to ``parts``, each date after the one before (at first
    the last in ``parts``). Returns the row count and layout; an error names its row."""
    last = parts[-1][0][-1].item() if parts else None
    date_idx, price_idx, _ = layout or (0, 0, 0)
    dates: list[Date] = []
    prices: list[float] = []
    # each line with its LF (str.splitlines would also split at \x0b, \x85 and more)
    for raw in re.findall(r".*\n|.+", block):
        row += 1
        try:
            if not raw.isascii():
                try:
                    raw.encode()
                except UnicodeEncodeError as exc:
                    byte = ord(raw[exc.start]) - 0xDC00
                    raise ValueError(f"not UTF-8 (byte 0x{byte:02x} "
                                     f"at column {exc.start + 1})") from None
            stripped = raw.strip(_PAD)
            if not stripped or stripped.startswith("#"):
                continue
            if layout is None:
                date_idx, price_idx, _ = layout = _header(raw)
                continue
            cells = next(csv.reader([raw]))
            if len(cells) <= date_idx or len(cells) <= price_idx:
                raise ValueError(f"expected at least {max(date_idx, price_idx) + 1} columns")
            try:
                d = _iso_date(cells[date_idx].strip(_PAD))
            except ValueError as exc:
                raise ValueError(f"unparsable date {cells[date_idx]!r}") from exc
            raw_price = cells[price_idx].strip(_PAD)
            if raw_price == "":
                raise ValueError("blank price")
            try:
                p = _number(raw_price, float)
            except ValueError as exc:
                raise ValueError(f"unparsable price {raw_price!r}") from exc
            if not math.isfinite(p):
                raise ValueError(f"non-finite price {raw_price}")
            if p <= 0:
                raise ValueError(f"non-positive price {raw_price}")
            if d == last:
                raise ValueError(f"duplicate date {d.isoformat()}")
            if last is not None and d < last:
                raise ValueError(f"dates not increasing ({d.isoformat()} "
                                 f"after {last.isoformat()})")
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}: row {row}: {exc}") from exc
        dates.append(d)
        prices.append(p)
        last = d
    if dates:
        # from day numbers: numpy converts a sequence of dates some 20 times slower
        days = np.fromiter(map(Date.toordinal, dates), np.int64, len(dates))
        parts.append((_DATE_MIN + (days - 1), np.array(prices)))
    return row, layout


def _parse_block(text: str, date_idx: int, price_idx: int,
                 ncols: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Dates and prices of a block of whole lines, or None unless every line
    is ``ncols`` bare cells with a ``YYYY-MM-DD`` date and a finite positive
    price, and the dates strictly increase."""
    if not text.isascii() or len(text.encode().translate(None, _ROW_PARSER_ONLY)) != len(text):
        return None
    rows, stride = text.count("\n"), ncols + 1
    # each newline becomes a cell of its own, so rows of ncols cells put one
    # at every stride-th place
    cells = text.replace("\n", ",\n,").split(",")[:-1]
    if len(cells) != rows * stride or cells[ncols::stride].count("\n") != rows:
        return None
    date_cells = cells[date_idx::stride]
    joined = (",".join(date_cells) + ",").encode()
    if len(joined) != 11 * rows:  # no cell holds a comma, so each is 10 long
        return None
    if ((np.frombuffer(joined, np.uint8).reshape(rows, 11) - _DATE_LOW) > _DATE_SPAN).any():
        return None
    try:  # the row parser's calendar check and float(), cell by cell
        dates = np.array(date_cells, dtype="datetime64[D]")
        values = np.array(cells[price_idx::stride], dtype=float)
    except ValueError:
        return None
    # numpy takes year 0000, which the row parser rejects
    if dates[0] < _DATE_MIN or not (dates[1:] > dates[:-1]).all() \
            or not ((values > 0) & (values < np.inf)).all():
        return None
    return dates, values


def _write_files(files: dict[Path, str]) -> None:
    """Write every file whole to a temporary sibling, then move each into place.

    A temporary file is created with mode 0o666, so the umask applies as for a
    plain ``open``. A failure while writing leaves the previous files untouched
    and no temporary file behind; a missing directory fails before any is made.
    """
    for path in files:
        if not path.parent.is_dir():
            raise FileNotFoundError(f"no directory {path.parent}")
    tmps: list[str] = []
    try:
        for path, data in files.items():
            tmp = f"{path}.{os.urandom(4).hex()}.tmp"
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            tmps.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(data)
        for tmp, path in zip(tmps, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def emit_synth(spec: FgnSpec, path: Path | str) -> Path:
    """Write a synthetic price CSV derived from generated fGn.

    Prices follow p[0] = 1, p[t+1] = p[t] * exp(x[t]/100), so re-ingesting the
    file and taking log returns recovers the generated noise. The seed and H
    are recorded in '#' header comments. Raises ValueError, before writing,
    when the last price would be dated past 9999-12-31, or a price overflows to
    inf or underflows to 0.
    """
    path = Path(path)
    most = (Date.max - SYNTH_EPOCH).days  # the last price is dated SYNTH_EPOCH + n days
    if spec.n > most:
        raise ValueError(f"cannot write {path}: price {spec.n} would be dated past "
                         f"{Date.max}; n may be at most {most}")
    noise = generate_fgn(spec)
    log_prices = np.concatenate([[0.0], np.cumsum(noise / 100.0)])
    with np.errstate(over="ignore"):  # the check below names the price
        prices = np.exp(log_prices)
    bad = np.flatnonzero(~((prices > 0) & (prices < np.inf)))
    if bad.size:
        raise ValueError(f"cannot write {path}: price {bad[0]} is {prices[bad[0]]} at "
                         f"sigma {spec.sigma!r}; a smaller sigma keeps every price "
                         "finite and positive")
    lines = [
        "# synthetic fractional Gaussian noise price series",
        f"# h={spec.h!r} n={spec.n} sigma={spec.sigma!r} seed={spec.seed}",
        f"# generator={GENERATOR_ID}",
        "# price rule: p[0]=1; p[t+1]=p[t]*exp(x[t]/100)",
        "date,price",
    ]
    # lazily, so no column of day strings or floats is held beside the lines
    first = SYNTH_EPOCH.toordinal()
    days = map(Date.fromordinal, range(first, first + prices.size))
    lines += map("{},{!r}".format, days, map(float, prices))
    try:
        _write_files({path: "\n".join(lines) + "\n"})
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc
    return path


def _rolling_csv(result: RollingResult, n_returns: int) -> str:
    proto = result.protocol
    lines = [
        f"# series: {result.id}",
        f"# estimator: {proto.estimator}",
        f"# detrend_order: {proto.detrend_order if proto.estimator == 'dfa' else 'n/a'}",
        f"# window: {proto.window}",
        f"# step: {proto.step}",
        f"# ladder: {','.join(str(s) for s in proto.ladder.sizes)}",
        f"# returns: {n_returns}",
        f"# windows: {result.h.size}",
        f"# window_count_rule: {WINDOW_COUNT_RULE}",
        f"# note: {COUNT_NOTE}",
        "window_start_date,window_end_date,h,r_squared",
    ]
    dates = (np.datetime_as_string(d).tolist() for d in (result.start_dates, result.end_dates))
    lines += map("{},{},{:.10f},{:.10f}".format, *dates, result.h.tolist(),
                 result.r_squared.tolist())
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SeriesAnalysis:
    """Every result of one series' analysis; the commands only render it.

    ``report`` is None when a subsample has under two windows; ``note`` says why.
    """

    returns_stats: DescriptiveStats
    rolling: RollingResult
    hurst_stats: DescriptiveStats
    counts: tuple[int, int]
    report: TestReport | None
    note: str | None


def analyse_series(prices: PriceSeries, config: RunConfig) -> SeriesAnalysis:
    """Log returns, rolling Hurst estimates, the split, and the test battery. A series with
    fewer than ``window + 3 * step`` returns (4 windows) fails before any estimate is made."""
    returns = log_returns(prices)
    n, window, step = len(returns), config.window, config.step
    if n < window + 3 * step:  # describe needs 4 observations
        raise ValueError(f"{len(range(0, n - window + 1, step))} rolling windows, fewer than "
                         f"the 4 needed: window {window} at step {step} needs at least "
                         f"{window + 3 * step} returns, the series has {n}")
    rets_stats = describe(returns.values)
    result = rolling_hurst(returns, config)
    hurst_stats = describe(result.h)
    before, after = split_at(result, config.split_date, by=config.split_by)
    counts = (before.size, after.size)

    report = note = None
    n, side = min(zip(counts, ("before", "after")))
    if n < 2:  # Levene and the t bounds need two windows on each side
        held = "empty" if n == 0 else f"with only {n} window"
        note = f"split at {config.split_date.isoformat()} leaves the "\
               f"'{side}' subsample {held}; test battery skipped"
    else:
        report = build_report(before, after, level=config.confidence_level)
    return SeriesAnalysis(rets_stats, result, hurst_stats, counts, report, note)


def _stats_payload(label: str, config: RunConfig, analysis: SeriesAnalysis) -> dict:
    return {
        "label": label,
        "returns": asdict(analysis.returns_stats),
        "hurst": asdict(analysis.hurst_stats),
        "protocol": config.protocol_dict(),
        "window_count": analysis.rolling.h.size,
        "window_count_rule": WINDOW_COUNT_RULE,
    }


def _report_payload(label: str, config: RunConfig, analysis: SeriesAnalysis) -> dict:
    before, after = analysis.counts
    payload: dict = {
        "label": label,
        "protocol": config.protocol_dict(),
        "split_date": config.split_date.isoformat(),
        "split_by": config.split_by,
        "counts": {"before": before, "after": after},
    }
    if analysis.report is not None:
        payload["tests"] = analysis.report.to_dict()
    else:
        payload["tests"] = None
        payload["note"] = analysis.note
    return payload


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def process_series(prices: PriceSeries, config: RunConfig) -> list[Path]:
    """Analyse one ingested series and write its reports as one set."""
    out, label = Path(config.output_dir), prices.id
    analysis = analyse_series(prices, config)
    files: dict[Path, str] = {}
    if "json" in config.formats:
        for kind, payload in (("stats", _stats_payload), ("report", _report_payload)):
            files[out / f"{label}_{kind}.json"] = _dump_json(payload(label, config, analysis))
    if "csv" in config.formats:
        rolling = _rolling_csv(analysis.rolling, analysis.returns_stats.n)
        files[out / f"{label}_rolling.csv"] = rolling
    _write_files(files)
    return list(files)


def _check_output_dir(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = tempfile.TemporaryFile(dir=out)
        probe.close()
    except OSError as exc:
        raise ValueError(f"output directory {out} is not writable: {exc}") from exc


def run_each(inputs, handle, *, log=None) -> int:
    """Ingest every ``(path, label)`` input and pass the series to ``handle``.

    A series whose ingest or handling fails is reported on ``log`` (stderr
    when None) as ``error: <label>: <cause>``, and the rest still run.
    Returns 2 when any series failed, else 0.
    """
    status = 0
    for path, label in inputs:
        try:
            handle(ingest_csv(path, label))
        except (ValueError, OSError) as exc:
            print(f"error: {label}: {exc}", file=sys.stderr if log is None else log)
            status = 2
    return status


def run_pipeline(config: RunConfig, *, log=None) -> int:
    """Process every configured input series; returns the process exit status.

    0 on full success; 2 when at least one series failed (the remaining
    series are still processed). Raises ValueError before any computation
    when the configuration itself is unusable (no inputs, unwritable output
    directory). Progress and errors go to ``log``, stderr when None.
    """
    if not config.inputs:
        raise ValueError("no input series configured")
    _check_output_dir(Path(config.output_dir))
    log = sys.stderr if log is None else log

    def write(prices: PriceSeries) -> None:
        for p in process_series(prices, config):
            print(f"wrote {p}", file=log)

    return run_each(config.inputs, write, log=log)
