"""Golden cases: each CLI run on the committed inputs still prints and writes
what ``tests/golden/expected/`` holds (see ``tests/golden/regen.py``)."""

import json
import math

import pytest

from golden import regen
from golden.regen import CASES, EXPECTED, run_case


def expected_files(name, expected=EXPECTED):
    root = expected / name
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def assert_json_close(got, want, where=""):
    """Same keys and non-float values; floats within 1e-12 relative
    (1e-15 absolute near zero)."""
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, where


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(tmp_path, name):
    want = expected_files(name)
    got = run_case(name, tmp_path)
    assert sorted(got) == sorted(want)
    for rel, data in want.items():
        if rel.endswith(".json"):
            assert_json_close(json.loads(got[rel]), json.loads(data), rel)
        else:
            assert got[rel].decode() == data.decode(), rel


def test_messy_copy_of_an_input_runs_as_the_clean_one(tmp_path):
    # live runs, as expected/ holds JSON floats only to within the tolerance above
    runs = []
    for name in ("run_default", "run_messy"):
        (tmp_path / name).mkdir()
        runs.append(run_case(name, tmp_path / name))
    assert runs[1] == runs[0]


def test_regen_rewrites_only_the_named_cases(tmp_path, monkeypatch):
    expected = tmp_path / "expected"
    for name in ("hurst", "describe"):
        (expected / name).mkdir(parents=True)
        (expected / name / "stale").write_bytes(b"old")
    monkeypatch.setattr(regen, "EXPECTED", expected)
    regen.regenerate(["hurst"])
    assert expected_files("hurst", expected) == expected_files("hurst")
    assert expected_files("describe", expected) == {"stale": b"old"}


def test_regen_without_names_rewrites_every_case(tmp_path, monkeypatch):
    expected = tmp_path / "expected"
    (expected / "removed_case").mkdir(parents=True)
    monkeypatch.setattr(regen, "EXPECTED", expected)
    monkeypatch.setattr(regen, "CASES", {name: CASES[name] for name in ("hurst", "describe")})
    regen.regenerate()
    assert sorted(p.name for p in expected.iterdir()) == ["describe", "hurst"]
    for name in ("hurst", "describe"):
        assert expected_files(name, expected) == expected_files(name)


def test_regen_rejects_an_unknown_case(tmp_path, monkeypatch):
    monkeypatch.setattr(regen, "EXPECTED", tmp_path)
    with pytest.raises(ValueError, match="unknown golden case.*: nope"):
        regen.regenerate(["hurst", "nope"])
    assert not any(tmp_path.iterdir())
