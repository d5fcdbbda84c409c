"""End-to-end evidence for the sweep pipeline's sharing mechanisms.

Times each mechanism through the public :func:`repro.sim.sweep.run_sweep`
on the sweeps of the ``perfbench`` workloads, once with it and once
without, and prints one markdown row per mechanism × workload:

- **warm start** (checkpoint-tree prefix sharing, which includes the
  timeline's round sharing): ``warm_start=None`` vs ``warm_start=False``
  on ``paired-store`` and ``paper-figs``;
- **shared replay**: the paper lineup in one ``run_sweep`` vs one
  ``run_sweep`` per strategy on ``paper-figs``.

Every sweep runs serially and without a store, so the walls price the
computation the mechanism shares, not store I/O.  Each pair times both
sides back to back, alternating which side goes first, and asserts that
the two sides produce byte-identical series.  The ratio is the wall
without the mechanism over the wall with it (above 1 means the
mechanism saves time); the table reports its median and interquartile
range over the pairs, each side's median wall, and how many pairs the
mechanism won.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/mechanism_evidence.py --pairs 10 --seed 3
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import WORKLOADS  # noqa: E402
from repro.sim.sweep import run_sweep  # noqa: E402


def _digest(series) -> str:
    return json.dumps([series.x_values, series.metrics, series.stderr], sort_keys=True)


def _merge(parts):
    """One digest for per-strategy series, as if the lineup ran together."""
    first = parts[0]
    metrics = {m: {} for m in first.metrics}
    stderr = {m: {} for m in first.stderr}
    for part in parts:
        for table, merged in ((part.metrics, metrics), (part.stderr, stderr)):
            for metric, per_strategy in table.items():
                merged[metric].update(per_strategy)
    return json.dumps([first.x_values, metrics, stderr], sort_keys=True)


def _warm(sweeps, seed: int, shared: bool) -> list[str]:
    warm_start = None if shared else False
    return [
        _digest(
            run_sweep(s.spec(), runs=s.runs, seed=seed, executor="serial", warm_start=warm_start)
        )
        for s in sweeps
    ]


def _lineup(sweeps, seed: int, shared: bool) -> list[str]:
    out = []
    for s in sweeps:
        spec = s.spec()
        if shared:
            out.append(_digest(run_sweep(spec, runs=s.runs, seed=seed, executor="serial")))
            continue
        parts = [
            run_sweep(spec, runs=s.runs, seed=seed, executor="serial", strategies=(name,))
            for name in spec.strategies
        ]
        out.append(_merge(parts))
    return out


#: mechanism -> (sweep runner taking ``shared``, workloads it is priced on)
CASES = {
    "warm-start": (_warm, ("paired-store", "paper-figs")),
    "shared-replay": (_lineup, ("paper-figs",)),
}


def measure(mechanism: str, workload: str, *, pairs: int, seed: int) -> dict:
    """Alternating with/without pairs; raises if any pair's series differ."""
    run, _ = CASES[mechanism]
    sweeps = WORKLOADS[workload].sweeps
    ratios, on_walls, off_walls = [], [], []
    for i in range(pairs):
        walls, digests = {}, {}
        for shared in (True, False) if i % 2 == 0 else (False, True):
            start = time.perf_counter()
            digests[shared] = run(sweeps, seed, shared)
            walls[shared] = time.perf_counter() - start
        if digests[True] != digests[False]:
            raise AssertionError(f"{mechanism} on {workload}: pair {i} series differ")
        on_walls.append(walls[True])
        off_walls.append(walls[False])
        ratios.append(walls[False] / walls[True])
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "pairs": pairs,
        "won": sum(r > 1.0 for r in ratios),
        "on_s": statistics.median(on_walls),
        "off_s": statistics.median(off_walls),
        "ratio": median,
        "iqr": (q1, q3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10, help="alternating with/without pairs")
    parser.add_argument("--seed", type=int, default=3, help="run_sweep seed")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2 for an interquartile range")
    print("| mechanism | workload | pairs | won | with (s) | without (s) | ratio | IQR |")
    print("|---|---|---|---|---|---|---|---|")
    for mechanism in sorted(CASES):
        for workload in CASES[mechanism][1]:
            row = measure(mechanism, workload, pairs=args.pairs, seed=args.seed)
            q1, q3 = row["iqr"]
            print(
                f"| {mechanism} | {workload} | {row['pairs']} | {row['won']} | "
                f"{row['on_s']:.2f} | {row['off_s']:.2f} | {row['ratio']:.2f}× | "
                f"{q1:.2f}–{q3:.2f}× |",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
