"""The benchmark's traced smoke run, held to the rule its CI step applies.

``bench/test_run.py`` lets a per-layer metric read null. The benchmark's CI
step does not: ``check_strict_result`` states its rule, and this test applies it to
``bench/run.py --smoke --workload all --trace 1 --seconds 0``. So a change that
stops calling a function the harness wraps fails here too, not only in CI.
CI checks the output of its other bench runs through this file's ``__main__``:
``python3 tests/test_bench_smoke.py FILE...`` exits non-zero, naming the first
file whose text breaks the rule.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def reject(constant):
    raise ValueError(f"{constant} is not JSON")


def check_strict_result(text: str) -> None:
    """Raise ValueError, saying which part fails, unless ``text``'s last line is
    strict JSON (no NaN or Infinity) with ``correct`` true and a non-empty
    ``metrics`` whose every value is finite."""
    lines = text.splitlines()
    last = lines[-1] if lines else ""
    try:
        result = json.loads(last, parse_constant=reject)
    except ValueError as exc:
        raise ValueError(f"the last line is not strict JSON ({exc}): {last[:200]}") from None
    if not isinstance(result, dict) or result.get("correct") is not True:
        raise ValueError(f"the last line is not a correct result: {last[:200]}")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError("the result has no metrics")
    bad = [name for name, m in metrics.items()
           if not (isinstance(m, dict) and type(m.get("value")) in (int, float)
                   and math.isfinite(m["value"]))]
    if bad:
        raise ValueError(f"metrics without a finite value: {', '.join(bad)}")


def test_traced_smoke_run_ends_in_a_strict_finite_result():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--workload", "all", "--trace", "1",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    check_strict_result(proc.stdout)


if __name__ == "__main__":
    for path in sys.argv[1:]:
        try:
            check_strict_result(Path(path).read_text())
        except (OSError, ValueError) as exc:
            sys.exit(f"{path}: {exc}")
