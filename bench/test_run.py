"""Tests of the benchmark itself; run with ``python -m pytest bench``.

The smoke runs use tiny inputs and one sample of everything, so they check
that every metric BENCHMARK.json declares is reported (or marked absent),
not how fast anything is.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # dataclasses look their module up while it loads
_spec.loader.exec_module(bench)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_declared_metric(trace, group):
    proc = _run(ROOT, "--smoke", "--workload", "all", "--seed", "3",
                "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {f"{w['name']}.{m['name']}" for w in SPEC["workloads"] for m in SPEC[group]}
    assert set(result["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in SPEC[group]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name.split(".", 1)[1]]
        value = metric["value"]
        if trace == 0:
            assert isinstance(value, float) and value > 0, name
        else:
            assert value is None or isinstance(value, (int, float)), name


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_child_spans():
    tracer = bench.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10_000)))

    def outer_body():
        inner()
        inner()
        return "done"

    assert tracer.wrap("outer", outer_body)() == "done"
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2
    outer_span = next(s for s in tracer.spans if s[0] == "outer")
    inner_time = sum(s[2] - s[1] for s in tracer.spans if s[0] == "inner")
    assert summary["outer"]["self"] == pytest.approx(outer_span[2] - outer_span[1] - inner_time)
    assert all(s[3] == tracer.spans.index(outer_span) for s in tracer.spans if s[0] == "inner")


def test_missing_trace_point_is_skipped_and_wrapping_is_undone(monkeypatch):
    module = types.ModuleType("bench_fake_layer")
    module.present = lambda: 1
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setattr(bench, "TRACE_POINTS", (
        (module.__name__, "present", "present", None),
        (module.__name__, "gone", "gone", None),
        ("bench_no_such_module", "anything", "anything", None),
    ))
    original = module.present
    tracer = bench.Tracer()
    with bench.traced(tracer):
        assert module.present is not original
        module.present()
    assert module.present is original
    assert set(tracer.summary()) == {"present"}


def test_parse_importtime_sums_packages():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:      2000 |       2500 |       numpy",
        "import time:       500 |        500 |         numpy.core",
        "import time:      7000 |       7000 |       scipy.stats",
        "import time:       300 |       9800 |     longmem.stattests",
        "import time:       200 |      10000 |   longmem",
        "import time:       400 |        400 |   click",
        "import time:       600 |      11000 | longmem.cli",
    ])
    parsed = bench.parse_importtime(text)
    assert parsed == pytest.approx({
        "total": 0.011, "numpy": 0.0025, "scipy": 0.007, "click": 0.0004, "longmem": 0.0011,
    })
