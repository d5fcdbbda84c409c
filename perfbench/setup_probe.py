"""Time what a user pays before a sweep starts, in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR [--smoke]``

Imports the sweep and results layers, resolves every sweep of the
workload into its execution plan (scenario lookup, sweep points, seed
derivation) and opens each of the workload's backends fresh under
WORKDIR.  Prints the elapsed seconds as one JSON line.  ``run.py``
starts this several times per run and reports the median as
``setup_s``; a fresh process is the only way to pay the imports again.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> None:
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    from repro.sim.results import open_backend
    from repro.sim.sweep import build_sweep

    from perfbench.workloads import SMOKE_WORKLOADS, WORKLOADS

    workload = (SMOKE_WORKLOADS if "--smoke" in argv else WORKLOADS)[name]
    for sweep in workload.sweeps:
        build_sweep(sweep.spec(), runs=sweep.runs, seed=seed)
    for kind in workload.backends:
        open_backend(workdir / ("store.sqlite" if kind == "sqlite" else "store"), kind)
    print(json.dumps({"setup_s": time.perf_counter() - _START}))


if __name__ == "__main__":
    main(sys.argv[1:])
