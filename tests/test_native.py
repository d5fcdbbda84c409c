"""The compiled kernel library: build cache, cache key, errors, concurrent builds."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import _native
from repro.coloring.dsatur import dsatur_color_matrix
from repro.errors import ConfigurationError

SRC = Path(repro.__file__).resolve().parents[1]

#: Cold-builds into the cache directory given as argv[1], then prints
#: the DSATUR colors of a fixed random conflict matrix.
COLOR_SCRIPT = """
import sys
from pathlib import Path

import numpy as np

from repro import _native
from repro.coloring.dsatur import dsatur_color_matrix

_native.CACHE_DIR = Path(sys.argv[1])
rng = np.random.default_rng(0)
a = rng.random((60, 60)) < 0.3
a |= a.T
np.fill_diagonal(a, False)
print(dsatur_color_matrix(a).tolist())
"""


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache directory and no loaded library (both restored after)."""
    monkeypatch.setattr(_native, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(_native, "_library", None)
    return tmp_path / "cache"


def run_python(code: str, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_second_load_reuses_the_build_without_the_compiler(cache, monkeypatch):
    _native.library()
    built = sorted(cache.iterdir())
    assert built == [_native.library_path(_native.SOURCE.read_bytes())]
    stamp = built[0].stat().st_mtime_ns

    monkeypatch.setattr(_native, "_library", None)
    monkeypatch.setattr(_native, "COMPILER", "no-such-compiler")  # a build would raise
    lib = _native.library()
    assert lib.repro_dsatur is not None
    assert sorted(cache.iterdir()) == built and built[0].stat().st_mtime_ns == stamp
    assert dsatur_color_matrix(~np.eye(3, dtype=bool)).tolist() == [1, 2, 3]


def test_edited_source_builds_under_a_new_key(cache, tmp_path, monkeypatch):
    original = _native.library_path(_native.SOURCE.read_bytes())
    edited = tmp_path / "kernels.c"
    edited.write_bytes(_native.SOURCE.read_bytes() + b"\n/* edited */\n")
    monkeypatch.setattr(_native, "SOURCE", edited)
    new = _native.library_path(edited.read_bytes())
    assert new != original and new.parent == cache
    _native.library()
    assert sorted(cache.iterdir()) == [new]


def test_flags_are_part_of_the_key(monkeypatch):
    source = _native.SOURCE.read_bytes()
    original = _native.library_path(source)
    monkeypatch.setattr(_native, "FLAGS", (*_native.FLAGS, "-g"))
    assert _native.library_path(source) != original


def test_missing_compiler_names_it(cache, monkeypatch):
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    with pytest.raises(ConfigurationError, match="'cc'"):
        _native.library()
    assert not cache.exists()


def test_unwritable_cache_directory_names_the_path(tmp_path, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the cache directory's parent should be")
    monkeypatch.setattr(_native, "CACHE_DIR", blocker / "cache")
    monkeypatch.setattr(_native, "_library", None)
    with pytest.raises(ConfigurationError) as info:
        _native.library()
    assert str(blocker / "cache") in str(info.value)


def test_library_loads_on_first_kernel_call_not_at_import():
    code = (
        "import repro.coloring.bbb, repro.matching.hungarian, repro._native as n\n"
        "print(n._library is None)"
    )
    out, err = run_python(code).communicate(timeout=120)
    assert out.strip() == "True", err


def test_concurrent_cold_builds_both_load(cache):
    procs = [run_python(COLOR_SCRIPT, str(cache)) for _ in range(2)]
    results = [p.communicate(timeout=120) for p in procs]
    for proc, (_, err) in zip(procs, results):
        assert proc.returncode == 0, err
    rng = np.random.default_rng(0)
    a = rng.random((60, 60)) < 0.3
    a |= a.T
    np.fill_diagonal(a, False)
    expected = str(dsatur_color_matrix(a).tolist())
    assert [out.strip() for out, _ in results] == [expected, expected]
    assert [p.suffix for p in cache.iterdir()] == [".so"]  # no temporary file left
