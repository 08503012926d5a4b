"""A failing series prints one error line on stderr and nothing else.

These run the CLI as a subprocess, since pytest and click's test runner both
capture the warnings that would otherwise reach stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import longmem


@pytest.mark.parametrize("first, second", [("1e300", "1e-300"), ("1e-300", "1e300")])
@pytest.mark.parametrize("command", ["describe", "run"])
def test_non_finite_return_prints_one_line(tmp_path, command, first, second):
    # the price ratio underflows to 0 (log gives -inf) or overflows to inf
    path = tmp_path / "uf.csv"
    path.write_text(f"date,price\n2020-01-01,{first}\n2020-01-02,{second}\n2020-01-03,1.0\n")
    args = [command, str(path)]
    if command == "run":
        args += ["--output-dir", str(tmp_path / "o")]
    src = str(Path(longmem.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "longmem.cli", *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    ratio = "underflows" if float(first) > float(second) else "overflows"
    assert proc.stderr == (f"error: uf: prices {float(first)!r} then {float(second)!r} at "
                           f"2020-01-02: their ratio {ratio} the float range\n")
