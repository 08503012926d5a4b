"""The benchmark's traced smoke run, held to the rule its CI step applies.

``bench/test_run.py`` lets a per-layer metric read null. The CI step that runs
``bench/run.py --smoke --workload all --trace 1 --seconds 0`` does not: its
last line must be strict JSON (no NaN or Infinity), ``correct`` must be true
and every metric must have a finite value. So a change that stops calling a
function the harness wraps fails here too, not only in CI.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def reject(constant):
    raise ValueError(f"{constant} is not JSON")


def test_traced_smoke_run_ends_in_a_strict_finite_result():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--workload", "all", "--trace", "1",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines, proc.stderr[-2000:]
    result = json.loads(lines[-1], parse_constant=reject)
    assert isinstance(result, dict) and result.get("correct") is True, lines[-1][:200]
    metrics = result.get("metrics")
    assert isinstance(metrics, dict) and metrics
    bad = [name for name, m in metrics.items()
           if not (isinstance(m, dict) and type(m.get("value")) in (int, float)
                   and math.isfinite(m["value"]))]
    assert bad == [], f"metrics without a finite value: {', '.join(bad)}"
