#!/usr/bin/env python3
"""Benchmark of `longmem run`: end-to-end and per-layer metrics.

Run from the repository root; the program is imported from ``src/``::

    python3 bench/run.py --workload paper --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1
    python3 bench/run.py --smoke --workload all --seconds 0 --trace 1

Each workload is a closed loop with one client: one operation at a time, no
extra threads, and every BLAS thread count pinned to 1 (recorded in the
result). Inputs are fGn price CSVs written by ``longmem.emit_synth`` from
``--seed`` before any timer starts; the program sees only those files.

``--trace 0`` measures the end-to-end metrics. After one untimed import (it
compiles bytecode) ``setup_s`` is the median of several fresh interpreters
that only import ``longmem.cli``. Then, until ``--seconds`` have passed, the
loop alternates one ``longmem run`` CLI process (``wall_s``, ``peak_rss_mb``)
with in-process ``run_pipeline`` calls on warm imports (``pipeline_s``).
Every timed process and call samples its own interpreter speed (see
``speed.py``), and its time is reported at reference speed; the raw seconds
are printed beside them and kept in the record.

``--trace 1`` measures the per-layer metrics. Import costs come from
``-X importtime``. The loop alternates an untraced ``run_pipeline`` call with
a traced one, in which the library functions are wrapped where the pipeline
looks them up, so each call records a span (name, start, end, parent) in
memory. Self times come from the spans, which are written out at exit. A
wrapped name that no longer exists, or is never called, yields an absent
metric (value null) instead of an error.

Every operation's outputs are checked: a series fails when the exit status is
not 0, one of its three files is missing, a JSON file does not validate
against ``src/longmem/schemas``, the window count breaks
``floor((N - window) / step) + 1``, or its bytes differ from the run's first
operation. Failures are counted, never fatal. The last stdout line is one
JSON object with ``correct``, ``attempted`` (series operations), ``failed``
and ``metrics``, whose names and units come from ``BENCHMARK.json``. The full
record (environment, raw samples, output sha256) goes to ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import shutil
import signal
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCHEMAS = SRC / "longmem" / "schemas"
OUT_DIR = ROOT / ".bench_run"

BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# What the `longmem` console script runs.
CLI_MAIN = "from longmem.cli import main; main()"
IMPORT_ONLY = "import longmem.cli"

# The paper's protocol, which `run` uses by default.
WINDOW, STEP = 500, 7
OUTPUT_KINDS = ("stats.json", "report.json", "rolling.csv")

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
MIN_ROUNDS = 2  # a run never rests on a single sample, even when --seconds is short
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Series:
    label: str
    h: float
    n: int  # returns; the CSV holds n + 1 prices
    seed: int

    @property
    def windows(self) -> int:
        return (self.n - WINDOW) // STEP + 1


@dataclass(frozen=True)
class Workload:
    name: str
    estimator: str
    series: tuple[Series, ...]

    @property
    def windows(self) -> int:
        return sum(s.windows for s in self.series)


def make_workload(name: str, seed: int, smoke: bool) -> Workload:
    """Series for a workload; distinct series get distinct generator seeds."""
    paper_n = 3700 if smoke else 4203  # 3700 still spans the default split date
    if name == "paper":
        return Workload(name, "dfa", (Series("paper", 0.6, paper_n, seed),))
    if name == "long":
        return Workload(name, "dfa", (Series("long", 0.7, 5000 if smoke else 100_000, seed),))
    if name == "batch-rs":
        count = 3 if smoke else 20
        return Workload(name, "rs", tuple(
            Series(f"rs{i:02d}", 0.3 + 0.4 * i / (count - 1), paper_n, seed * 1000 + i)
            for i in range(count)
        ))
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- processes


def spawn(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run a child to completion: (exit code, wall seconds, peak RSS in MB).

    Wall time runs from spawn to exit; peak RSS is the child's own, from
    wait4. stdout and stderr go to ``log``. A child running longer than
    CHILD_TIMEOUT_S is killed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    reaped = False
    previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds per package from ``-X importtime`` output for ``import longmem.cli``.

    ``total`` is the cumulative time of the top-level longmem imports; the
    others sum the self time of every module under that package.
    """
    totals = {"total": 0.0, "numpy": 0.0, "scipy": 0.0, "click": 0.0, "longmem": 0.0}
    seen = set()
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        parts = line[len("import time:"):].split("|", 2)
        self_us, cumulative_us, field = int(parts[0]), int(parts[1]), parts[2][1:]
        name = field.lstrip()
        depth = (len(field) - len(name)) // 2
        root = name.split(".", 1)[0]
        if root == "longmem" and depth == 0:
            totals["total"] += cumulative_us / 1e6
        if root in totals:
            totals[root] += self_us / 1e6
            seen.add(root)
    return {k: v for k, v in totals.items() if k == "total" or k in seen}


# ---------------------------------------------------------------- tracing


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, note]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, note=None):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, open_[-1] if open_ else -1, None])
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                open_.pop()
            if note is not None:
                try:
                    spans[index][4] = note(result)
                except (AttributeError, TypeError):
                    pass
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time, self time and summed notes."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, note) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "time": 0.0, "self": 0.0, "kept": 0, "tried": 0})
            s["calls"] += 1
            s["time"] += end - start
            s["self"] += end - start - child_time[i]
            if note is not None:
                s["kept"] += note[0]
                s["tried"] += note[1]
        return out


def _points_note(estimate):
    return len(estimate.points), len(estimate.ladder)


# (module, attribute the caller looks up, span name, note)
TRACE_POINTS = (
    ("longmem.pipeline", "ingest_csv", "ingest", None),
    ("longmem.pipeline", "process_series", "process_series", None),
    ("longmem.pipeline", "log_returns", "log_returns", None),
    ("longmem.pipeline", "describe", "describe", None),
    ("longmem.pipeline", "rolling_hurst", "rolling_hurst", None),
    ("longmem.pipeline", "split_at", "split_at", None),
    ("longmem.pipeline", "build_report", "build_report", None),
    ("longmem.estimators", "estimate_from_points", "estimate_from_points", _points_note),
    ("longmem.estimators", "fit_power_law", "fit_power_law", None),
)


@contextmanager
def traced(tracer: Tracer):
    """Wrap every trace point that exists for the duration of the block."""
    saved = []
    try:
        for module_name, attr, span, note in TRACE_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if callable(fn):
                saved.append((module, attr, fn))
                setattr(module, attr, tracer.wrap(span, fn, note))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


# ---------------------------------------------------------------- checks


class Checker:
    """Validates each operation's outputs against the first operation's bytes."""

    def __init__(self, workload: Workload) -> None:
        import jsonschema

        self.workload = workload
        self.validators = {
            p.name[: -len(".schema.json")]: jsonschema.Draft202012Validator(json.loads(p.read_text()))
            for p in sorted(SCHEMAS.glob("*.schema.json"))
        }
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}
        self.h_means: dict[str, float] = {}
        self.windows = 0

    def check(self, out: Path, status) -> tuple[int, int]:
        """Check one operation; returns the bytes it wrote and its windows."""
        hashes: dict[str, str] = {}
        self.windows = 0
        for s in self.workload.series:
            self.attempted += 1
            reason = self._check_series(out, s, status, hashes)
            if reason:
                self.failed += 1
                key = f"{s.label}: {reason}"
                self.reasons[key] = self.reasons.get(key, 0) + 1
        if self.reference is None:
            self.reference = hashes
        written = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        return written, self.windows

    def _check_series(self, out: Path, s: Series, status, hashes) -> str | None:
        if status != 0:
            return f"exit status {status}"
        for kind in OUTPUT_KINDS:
            path = out / f"{s.label}_{kind}"
            if not path.is_file():
                return f"missing {path.name}"
            hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        try:
            for path in out.glob(f"{s.label}_*.json"):
                validator = self.validators.get(path.stem[len(s.label) + 1:])
                if validator is not None:
                    error = next(validator.iter_errors(json.loads(path.read_text())), None)
                    if error is not None:
                        return f"{path.name} fails its schema: {error.message}"
            stats = json.loads((out / f"{s.label}_stats.json").read_text())
            windows, h_mean = stats["window_count"], stats["hurst"]["mean"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        lines = (out / f"{s.label}_rolling.csv").read_text().splitlines()
        rows = sum(1 for line in lines if line and not line.startswith("#")) - 1  # header
        if not windows == rows == s.windows:
            return f"window count {windows} (csv rows {rows}), expected {s.windows}"
        self.windows += windows
        self.h_means[s.label] = h_mean
        if self.reference is not None:
            for kind in OUTPUT_KINDS:
                name = f"{s.label}_{kind}"
                if hashes[name] != self.reference.get(name):
                    return f"{name} differs from the first run"
        return None

    def h_err(self) -> float | None:
        errs = [abs(self.h_means[s.label] - s.h) for s in self.workload.series
                if s.label in self.h_means]
        return statistics.fmean(errs) if errs else None


# ---------------------------------------------------------------- runner


class Runner:
    def __init__(self, workload: Workload, work: Path) -> None:
        from longmem.pipeline import RunConfig

        self.workload = workload
        self.work = work
        self.inputs = [work / "inputs" / f"{s.label}.csv" for s in workload.series]
        self.config = RunConfig(
            inputs=tuple((p, p.stem) for p in self.inputs), estimator=workload.estimator)
        self.checker = Checker(workload)
        self.ops = 0
        self.errors: list[str] = []

    def generate(self) -> None:
        from longmem.pipeline import emit_synth
        from longmem.synth import FgnSpec

        for s, path in zip(self.workload.series, self.inputs):
            path.parent.mkdir(parents=True, exist_ok=True)
            emit_synth(FgnSpec(h=s.h, n=s.n, seed=s.seed), path)

    def _out(self) -> Path:
        self.ops += 1
        return self.work / f"out{self.ops:04d}"

    def _finish(self, out: Path, status) -> tuple[int, int]:
        result = self.checker.check(out, status)
        shutil.rmtree(out, ignore_errors=True)
        return result

    def python(self, code: str, *args: str, sample: bool = True, flags: tuple = ()) -> Child:
        """Run ``python flags -c code args``; when sampled, the child records its speed."""
        log = self.work / f"child{self.ops:04d}.log"
        samples_path = self.work / f"child{self.ops:04d}.speed"
        self.ops += 1
        if sample:
            code = (f"import sys; sys.path.append({str(BENCH)!r}); import speed; "
                    f"speed.sample_to({str(samples_path)!r}); {code}")
        exit_code, wall, rss = spawn([sys.executable, *flags, "-c", code, *args], log)
        output = log.read_text(errors="replace")
        log.unlink()
        samples = []
        if samples_path.exists():
            samples = [float(line) for line in samples_path.read_text().split()]
            samples_path.unlink()
        return Child(exit_code, wall, rss, output, speed.at_reference_speed(wall, samples))

    def setup_once(self) -> Child:
        child = self.python(IMPORT_ONLY)
        if child.exit_code != 0:
            self.errors.append(f"import longmem.cli exited {child.exit_code}: {child.output[-300:]}")
        return child

    def cli(self) -> Child:
        """One `longmem run` process."""
        out = self._out()
        child = self.python(CLI_MAIN, "run", *map(str, self.inputs), "--output-dir", str(out),
                            "--estimator", self.workload.estimator)
        if child.exit_code != 0:
            print(f"  longmem run exited {child.exit_code}: {child.output[-300:]}", file=sys.stderr)
        self._finish(out, child.exit_code)
        return child

    def pipeline(self, tracer: Tracer | None = None, sample: bool = True) -> Call:
        """One in-process run, traced, speed-sampled, or neither."""
        from dataclasses import replace

        import longmem.pipeline as pipeline

        out = self._out()
        config = replace(self.config, output_dir=out)
        log = io.StringIO()
        sampler = speed.Sampler() if sample and tracer is None else None
        with traced(tracer) if tracer else sampler or nullcontext():
            start = time.perf_counter()
            try:
                status = pipeline.run_pipeline(config, log=log)
            except Exception as exc:  # a failed operation is counted, never fatal
                status = f"raised {exc!r}"
            elapsed = time.perf_counter() - start
        scaled = speed.at_reference_speed(elapsed, sampler.samples) if sampler else None
        return Call(elapsed, scaled, *self._finish(out, status))


class Child(NamedTuple):
    exit_code: int
    wall: float
    rss_mb: float
    output: str
    scaled: float | None  # wall at reference speed


class Call(NamedTuple):
    elapsed: float
    scaled: float | None  # elapsed at reference speed
    written: int
    windows: int


def end_to_end(runner: Runner, seconds: float, repeats: int) -> tuple[dict, dict]:
    """Samples of every end-to-end metric at reference speed, and the raw seconds."""
    runner.setup_once()  # compiles bytecode
    setup = [runner.setup_once() for _ in range(repeats)]
    walls, pipes = [], []
    start = time.perf_counter()
    while True:
        walls.append(runner.cli())
        # In-process calls get at least half the CLI's time, so that a short
        # pipeline still collects enough samples for a steady median.
        spent = 0.0
        while spent < walls[-1].wall / 2 or not spent:
            pipes.append(runner.pipeline())
            spent += pipes[-1].elapsed
        if len(walls) >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            break
    pipeline_s = [p.scaled for p in pipes if p.scaled]
    return {
        "wall_s": [c.scaled for c in walls if c.scaled],
        "setup_s": [c.scaled for c in setup if c.scaled],
        "pipeline_s": pipeline_s,
        "windows_per_s": [runner.workload.windows / t for t in pipeline_s],
        "peak_rss_mb": [c.rss_mb for c in walls],
    }, {
        "wall_s": [c.wall for c in walls],
        "setup_s": [c.wall for c in setup],
        "pipeline_s": [p.elapsed for p in pipes],
    }


def per_layer(runner: Runner, seconds: float, repeats: int) -> tuple[dict[str, list], list]:
    """Samples of every per-layer metric, and the spans of each traced call."""
    runner.setup_once()
    imports = []
    for _ in range(repeats):
        child = runner.python(IMPORT_ONLY, sample=False, flags=("-X", "importtime"))
        if child.exit_code != 0:
            runner.errors.append(
                f"import longmem.cli exited {child.exit_code}: {child.output[-300:]}")
        imports.append(parse_importtime(child.output))
    overhead, layers, spans = [], [], []
    start = time.perf_counter()
    while True:
        plain = runner.pipeline(sample=False)
        tracer = Tracer()
        call = runner.pipeline(tracer)
        overhead.append(call.elapsed - plain.elapsed)
        layers.append((tracer.summary(), call.written, call.windows))
        spans.append(tracer.spans)
        if len(layers) >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            break

    rows = sum(s.n + 1 for s in runner.workload.series)

    def layer(span: str, field: str = "time", per=lambda value, windows: value):
        return [per(summary[span][field], windows) for summary, _, windows in layers
                if span in summary and windows]

    def kept_ratio(summary):
        spans = summary.get("estimate_from_points")
        return spans["kept"] / spans["tried"] if spans and spans["tried"] else None

    return {
        "import.total_s": [i["total"] for i in imports if i.get("total")],
        "import.scipy_s": [i["scipy"] for i in imports if "scipy" in i],
        "import.numpy_s": [i["numpy"] for i in imports if "numpy" in i],
        "import.click_s": [i["click"] for i in imports if "click" in i],
        "import.longmem_self_s": [i["longmem"] for i in imports if "longmem" in i],
        "pipeline.ingest_s": layer("ingest"),
        "pipeline.ingest_rows_per_s": layer("ingest", per=lambda t, _: rows / t),
        "series.log_returns_s": layer("log_returns"),
        "series.describe_s": layer("describe"),
        "rolling.rolling_hurst_s": layer("rolling_hurst"),
        "rolling.s_per_window": layer("rolling_hurst", per=lambda t, w: t / w),
        "rolling.windows": [w for _, _, w in layers if w],
        "estimators.fit_calls_per_window": layer("fit_power_law", "calls", lambda c, w: c / w),
        "estimators.points_kept_ratio": [r for r in map(kept_ratio, (l[0] for l in layers))
                                         if r is not None],
        "estimators.h_err": [e for e in [runner.checker.h_err()] if e is not None],
        "stattests.build_report_s": layer("build_report"),
        "pipeline.write_self_s": layer("process_series", "self"),
        "pipeline.bytes_written": [b for _, b, _ in layers if b],
        "trace.overhead_s": overhead,
    }, spans


# ---------------------------------------------------------------- reporting


def environment(args) -> dict:
    from importlib import metadata

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "commit": git_commit(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def print_table(rows: list[tuple[str, list, str]]) -> None:
    """One line per metric: median, unit, sample count, min and max."""
    print(f"  {'metric':34} {'median':>12} {'unit':12} {'n':>5} {'min':>12} {'max':>12}")
    for name, values, unit in rows:
        if values:
            print(f"  {name:34} {statistics.median(values):>12.6g} {unit:12} {len(values):>5} "
                  f"{min(values):>12.6g} {max(values):>12.6g}")
        else:
            print(f"  {name:34} {'absent':>12} {unit:12} {0:>5}")


def run_workload(name: str, args, spec: dict) -> dict:
    workload = make_workload(name, args.seed, args.smoke)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    spans, raw = [], {}
    try:
        runner = Runner(workload, work)
        runner.generate()
        if args.trace:
            samples, spans = per_layer(runner, args.seconds, 1 if args.smoke else IMPORTTIME_REPEATS)
        else:
            samples, raw = end_to_end(runner, args.seconds, 1 if args.smoke else SETUP_REPEATS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if list(samples) != list(units):
        raise SystemExit(f"bench: metrics {list(samples)} do not match BENCHMARK.json {list(units)}")
    metrics = {k: statistics.median(v) if v else None for k, v in samples.items()}

    checker = runner.checker
    reference = checker.reference or {}
    digest = hashlib.sha256(json.dumps(reference, sort_keys=True).encode()).hexdigest()
    env = environment(args)
    env["samples"] = {k: len(v) for k, v in samples.items()}
    correct = checker.failed == 0 and not runner.errors

    print(f"workload {name}: seed {args.seed}, trace {args.trace}, "
          f"{len(workload.series)} series, {workload.windows} windows, "
          f"{checker.attempted} series operations, {checker.failed} failed")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"outputs sha256 {digest} over {len(reference)} files")
    print_table([(k, v, units[k]) for k, v in samples.items()]
                + [(f"{k} (raw)", v, "s") for k, v in raw.items()])
    if not args.trace:
        print(f"  {'failed_frac':34} {checker.failed / checker.attempted:>12.6g} "
              f"{'ratio':12} {checker.attempted:>5}")
        h_err = checker.h_err()
        print(f"  {'h_err':34} {'absent' if h_err is None else f'{h_err:.6g}':>12} "
              f"{'hurst':12} {len(checker.h_means):>5}")
    for reason, count in sorted(checker.reasons.items()):
        print(f"  failed x{count}: {reason}", file=sys.stderr)
    for error in runner.errors:
        print(f"  error: {error}", file=sys.stderr)

    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": name, "env": env, "correct": correct,
              "attempted": checker.attempted, "failed": checker.failed,
              "failures": checker.reasons, "errors": runner.errors,
              "metrics": metrics, "samples": samples, "raw_seconds": raw, "outputs_sha256": reference}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if spans:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for op, op_spans in enumerate(spans):
                for span in op_spans:
                    fh.write(json.dumps([op, *span]) + "\n")
    return {"correct": correct, "attempted": checker.attempted, "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one sample of everything, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (SRC / "longmem" / "__init__.py").is_file():
        print(f"bench: no longmem sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import longmem

    if Path(longmem.__file__).resolve().parent != SRC / "longmem":
        print(f"bench: imported longmem from {longmem.__file__}, not {SRC}", file=sys.stderr)
        return 2

    results = {name: run_workload(name, args, spec)
               for name in (names if args.workload == "all" else [args.workload])}
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
