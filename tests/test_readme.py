"""The README's CLI examples run as written, and its quoted error lines are
what the CLI prints."""

import re
import shlex
from datetime import date, timedelta
from pathlib import Path

from click.testing import CliRunner

from longmem.cli import main
from longmem.pipeline import emit_synth
from longmem.synth import FgnSpec

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples():
    """Each ``longmem`` command of the README's ``sh`` blocks, as arguments."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    return [args[1:] for args in lines if args[:1] == ["longmem"]]


def test_readme_has_cli_examples():
    assert [args[0] for args in cli_examples()] == ["synth", "describe", "hurst", "rolling", "run"]


def test_readme_cli_examples_exit_zero(tmp_path, monkeypatch):
    # in order, in one directory: the first writes the file the others read
    monkeypatch.chdir(tmp_path)
    for args in cli_examples():
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "fixture_report.json", "fixture_rolling.csv", "fixture_stats.json"]


# Each error line the README quotes, the exit status the README gives it (1:
# refused before any series is read, 2: a series failed while the rest ran),
# and a command that prints it, run in a directory holding the files that
# `error_inputs` writes
ERRORS = {
    "error: block size 4 too small for an order-3 fit": (1, "hurst s.csv --detrend-order 3"),
    "error: cannot write ow/p.csv: no directory ow": (1, "synth ow/p.csv --h 0.6 --n 100"),
    "error: cannot write big.csv: price 3 is 0.0 at sigma 100000.0; ...":
        (1, "synth big.csv --h 0.6 --n 5000 --sigma 1e5 --seed 1"),
    "error: sigma 1e+200 too large for n=50: ...":
        (1, "synth big.csv --h 0.6 --n 50 --sigma 1e200"),
    "error: cannot write big.csv: price 2921938 would be dated past 9999-12-31; ...":
        (1, "synth big.csv --h 0.6 --n 2921938"),
    "error: <label>: <cause>": (2, "describe ratio.csv"),
    "error: <label>: prices 1e+300 then 1e-300 at <date>: their ratio underflows the float "
    "range": (2, "describe ratio.csv"),
    "error: <label>: <note>": (2, "test s.csv"),
    "error: <label>: 0 rolling windows, fewer than the 4 needed: window 500 at step 7 needs at "
    "least 521 returns, the series has 300": (2, "rolling s300.csv"),
    "error: <label>: window 38 must be at least twice the largest ladder size (128)":
        (2, "hurst short.csv"),
    "error: ladder 144,147,153 spans 153/144 = 1.06, less than the one octave a slope needs":
        (1, "hurst s.csv --ladder 144,147,153"),
    "error: bad setting window = 'abc': ...": (1, "run s.csv --window abc"),
    "error: bad setting window = '5_00': a number takes ASCII characters only, and no '_'":
        (1, "run s.csv --window 5_00"),
    "error: No such option '--windw'. Did you mean '--window'?": (1, "run s.csv --windw 500"),
    "error: bad setting n = '1.5': invalid literal for int() with base 10: '1.5'":
        (1, "synth o.csv --h 0.5 --n 1.5"),
    "error: <file>:<line>: duplicate key 'window' (first on line <k>)":
        (1, "run s.csv --config dup.cfg"),
    "error: bad label '<repr>': it holds a control character": (1, "run 's.csv:a\tb'"),
}


def quoted_error_lines():
    """Each backquoted ``error: ...`` span of the README, joined onto one line."""
    spans = re.findall(r"`(error:[^`]*)`", README.read_text(encoding="utf-8"))
    return [" ".join(span.split()) for span in spans]


def error_inputs(directory):
    emit_synth(FgnSpec(h=0.6, n=1300, seed=7), directory / "s.csv")
    emit_synth(FgnSpec(h=0.6, n=300, seed=1), directory / "s300.csv")
    days = [date(2020, 1, 1) + timedelta(days=i) for i in range(39)]
    (directory / "short.csv").write_text(
        "date,price\n" + "".join(f"{d},{100 + i * 7 % 5}\n" for i, d in enumerate(days)))
    (directory / "ratio.csv").write_text("date,price\n2020-01-01,1e300\n2020-01-02,1e-300\n")
    (directory / "dup.cfg").write_text("window = 500\nwindow = 1024\n")


def test_every_quoted_error_line_has_a_command():
    assert sorted(quoted_error_lines()) == sorted(ERRORS)


def test_quoted_error_lines_are_printed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    error_inputs(tmp_path)
    for line, (status, command) in ERRORS.items():
        # a placeholder <...> stands for any text, and "..." for the rest of the line
        pattern = "".join(".+?" if part.startswith("<") else ".*" if part == "..."
                          else re.escape(part) for part in re.split(r"(<[^>]*>|\.\.\.)", line))
        result = CliRunner().invoke(main, shlex.split(command))
        assert result.exit_code == status, (command, result.output)
        assert any(re.fullmatch(pattern, printed) for printed in result.stderr.splitlines()), \
            (line, result.stderr)
