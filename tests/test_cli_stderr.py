"""A failing series, or a run refused before any series is read, prints one
error line on stderr and nothing else.

These run the CLI as a subprocess, since pytest and click's test runner both
capture the warnings that would otherwise reach stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import longmem
from longmem.pipeline import emit_synth
from longmem.synth import FgnSpec


def run_cli(*args, cwd=None):
    src = str(Path(longmem.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "longmem.cli", *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, cwd=cwd,
    )


@pytest.mark.parametrize("first, second", [("1e300", "1e-300"), ("1e-300", "1e300")])
@pytest.mark.parametrize("command", ["describe", "run"])
def test_non_finite_return_prints_one_line(tmp_path, command, first, second):
    # the price ratio underflows to 0 (log gives -inf) or overflows to inf
    path = tmp_path / "uf.csv"
    path.write_text(f"date,price\n2020-01-01,{first}\n2020-01-02,{second}\n2020-01-03,1.0\n")
    args = [command, str(path)]
    if command == "run":
        args += ["--output-dir", str(tmp_path / "o")]
    proc = run_cli(*args)
    assert proc.returncode == 2
    ratio = "underflows" if float(first) > float(second) else "overflows"
    assert proc.stderr == (f"error: uf: prices {float(first)!r} then {float(second)!r} at "
                           f"2020-01-02: their ratio {ratio} the float range\n")


@pytest.mark.parametrize("args, line", [
    (["synth", "o.csv", "--h", "1.5", "--n", "100"],
     "error: hurst exponent must lie strictly in (0, 1), got 1.5"),
    (["run", "s.csv", "--window", "abc"],
     "error: bad setting window = 'abc': invalid literal for int() with base 10: 'abc'"),
])
def test_configuration_error_prints_one_line(tmp_path, args, line):
    emit_synth(FgnSpec(h=0.6, n=600, seed=1), tmp_path / "s.csv")
    proc = run_cli(*args, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == line + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]
