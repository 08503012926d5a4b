"""Golden cases: committed inputs, the CLI commands run on them, and their outputs.

``tests/test_golden.py`` replays every case in ``CASES`` and compares what
it prints and writes with the files under ``expected/``. Run this script
only when an output is meant to change. Named cases are rewritten alone;
with no name, every case is, and ``expected/`` is rebuilt:

    PYTHONPATH=src python tests/golden/regen.py [CASE ...]

The inputs under ``inputs/`` are committed, not generated, so a change to
the fGn generator cannot move them. They were made once:

- ``synth.csv``: ``longmem synth --h 0.6 --n 1200 --seed 11``, 1,200 returns,
  101 windows at the defaults;
- ``stale.csv``: ``synth.csv`` with every price from the 701st on equal to the
  700th, as in an illiquid index;
- ``fixed.csv``: 600 prices ``100 * 1.0002**t``, whose returns vary only by
  rounding;
- ``accrual.csv``: ``synth.csv`` with prices 301-750 each 1.0002 times the one
  before, as in an index accruing while stale, and every later price keeping
  ``synth.csv``'s ratio to the one before. Windows 44-53 hold three 128-blocks
  of accrual;
- ``messy.csv``: ``synth.csv`` as a spreadsheet might export it: CRLF line
  ends, a comment after the header, the 101st date quoted, the 1,151st row
  padded with spaces and a tab, and a trailing blank line. Its run, labelled
  ``synth``, writes and prints what ``run_default`` does;
- ``badrow.csv``: an unparsable price in row 5;
- ``nonutf8.csv``: a ``0xff`` byte in row 4.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path
from typing import Sequence

from click.testing import CliRunner

from longmem.cli import main

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"

SPLIT = ("--split-date", "2001-06-01")

# case name -> CLI arguments; every input is named by its file name, with or
# without a ":label", and "out" is the output directory, both inside the
# case's work directory
CASES = {
    "run_default": ("run", "synth.csv", "--output-dir", "out"),
    "run_messy": ("run", "messy.csv:synth", "--output-dir", "out"),
    "run_split": ("run", "synth.csv", *SPLIT, "--output-dir", "out"),
    "run_rs_end": ("run", "synth.csv", *SPLIT, "--estimator", "rs", "--split-by", "end",
                   "--output-dir", "out"),
    "run_accrual": ("run", "accrual.csv", "--output-dir", "out"),
    "run_rs_accrual": ("run", "accrual.csv", "--estimator", "rs", "--output-dir", "out"),
    "run_dfa2": ("run", "synth.csv", *SPLIT, "--detrend-order", "2", "--ladder", "5,9,17,33",
                 "--output-dir", "out"),
    "describe": ("describe", "synth.csv"),
    "hurst": ("hurst", "synth.csv"),
    "hurst_rs": ("hurst", "synth.csv", "--estimator", "rs"),
    "test": ("test", "synth.csv", *SPLIT),
    "error_stale": ("run", "stale.csv", "--output-dir", "out"),
    "error_badrow": ("run", "badrow.csv", "--output-dir", "out"),
    "error_nonutf8": ("describe", "nonutf8.csv"),
    "error_fixed": ("run", "fixed.csv", "--output-dir", "out"),
    "error_window": ("run", "synth.csv", "--window", "abc", "--output-dir", "out"),
}


def run_case(name: str, work: Path) -> dict[str, bytes]:
    """Run one case in the empty directory ``work``.

    Returns its ``exit_code``, ``stdout`` and ``stderr``, and every file it
    wrote as ``out/<name>``, keyed by those relative names. Paths under
    ``work`` are printed relative to it.
    """
    for path in INPUTS.iterdir():
        shutil.copyfile(path, work / path.name)
    args = [str(work / a) if (INPUTS / a.partition(":")[0]).is_file() or a == "out" else a
            for a in CASES[name]]
    result = CliRunner().invoke(main, args)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    prefix = f"{work}/".encode()
    produced = {
        "exit_code": f"{result.exit_code}\n".encode(),
        "stdout": result.stdout_bytes.replace(prefix, b""),
        "stderr": result.stderr_bytes.replace(prefix, b""),
    }
    out = work / "out"
    if out.is_dir():
        for path in sorted(out.iterdir()):
            produced[f"out/{path.name}"] = path.read_bytes()
    return produced


def regenerate(names: Sequence[str] = ()) -> None:
    """Rewrite the expected outputs of the named cases, or of every case."""
    unknown = [name for name in names if name not in CASES]
    if unknown:
        raise ValueError(f"unknown golden case(s): {', '.join(unknown)}")
    if not names:
        shutil.rmtree(EXPECTED, ignore_errors=True)
    for name in names or CASES:
        shutil.rmtree(EXPECTED / name, ignore_errors=True)
        with tempfile.TemporaryDirectory() as work:
            for rel, data in run_case(name, Path(work)).items():
                target = EXPECTED / name / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data)
        print(f"wrote {EXPECTED / name}", file=sys.stderr)


if __name__ == "__main__":
    try:
        regenerate(sys.argv[1:])
    except ValueError as exc:
        sys.exit(f"regen: {exc}")
