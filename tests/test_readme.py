"""The README's CLI examples run as written."""

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from longmem.cli import main

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
