"""Golden cases: each CLI run on the committed inputs still prints and writes
what ``tests/golden/expected/`` holds (see ``tests/golden/regen.py``)."""

import json
import math

import pytest

from golden.regen import CASES, EXPECTED, run_case


def expected_files(name):
    root = EXPECTED / name
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
