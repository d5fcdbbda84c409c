"""The compiled kernels: ``kernels.c``, built with the system C compiler.

DSATUR, smallest-last, first-fit and the JV matcher run as C step loops
(see ``docs/architecture/strategies.md``, "Kernels"), and so does the
array conflict core's CA2 witness-counter upkeep (``repro_c2_row`` and
``repro_c2_col``; see ``docs/architecture/conflict-cores.md``).  The
library is compiled on the first kernel call, not at import, with
:data:`FLAGS` and no host-specific or fast-math option, so float64
arithmetic in the matcher rounds exactly as the reference search does.

The build lands in :data:`CACHE_DIR` under a name keyed by the SHA-256
of the source and the flags, so an edited source or changed flags build
a new file and an unchanged one is loaded without running the compiler.
Each build writes a temporary file and renames it into place, so
processes that build at the same time are safe.  There is no fallback:
a missing compiler or an unwritable cache directory raises
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = ["FLAGS", "library", "library_path"]

SOURCE = Path(__file__).with_name("kernels.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
COMPILER = "cc"
FLAGS = ("-std=c99", "-O2", "-fPIC", "-shared", "-ffp-contract=off")

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_SIGNATURES = {
    "repro_dsatur": (_I64, _PTR, _PTR),
    "repro_smallest_last": (_I64, _PTR, _PTR),
    "repro_greedy": (_I64, _PTR, _PTR, _PTR),
    "repro_max_weight": (_I64, _I64, _PTR, _PTR),
    "repro_c2_row": (_I64, _I64, _PTR, _PTR, _I64, _PTR),
    "repro_c2_col": (_I64, _I64, _PTR, _PTR, _I64, _PTR),
}

_library: ctypes.CDLL | None = None


def library_path(source: bytes) -> Path:
    """Where the build of ``source`` with :data:`FLAGS` is cached."""
    key = hashlib.sha256(source + "\0".join(FLAGS).encode()).hexdigest()[:16]
    return CACHE_DIR / f"kernels-{key}.so"


def _build(source: bytes, path: Path) -> None:
    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise ConfigurationError(
            f"C compiler {COMPILER!r} not found on PATH; it is needed to build {SOURCE.name}"
        )
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=path.stem + "-", suffix=".tmp", dir=path.parent)
        os.close(fd)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write the compiled kernels to {path.parent}: {exc}"
        ) from exc
    try:
        proc = subprocess.run(
            [compiler, *FLAGS, "-o", tmp, "-x", "c", "-"],
            input=source,
            capture_output=True,
        )
        if proc.returncode:
            raise ConfigurationError(
                f"{COMPILER} failed to build {SOURCE}:\n{proc.stderr.decode(errors='replace')}"
            )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def library() -> ctypes.CDLL:
    """The loaded kernel library, built on the first call if not cached."""
    global _library
    if _library is None:
        source = SOURCE.read_bytes()
        path = library_path(source)
        if not path.exists():
            _build(source, path)
        lib = ctypes.CDLL(str(path))
        for name, argtypes in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = ctypes.c_int
        _library = lib
    return _library
