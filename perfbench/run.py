"""Layer-attributed end-to-end benchmark of the minim-cdma sweep pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-figs --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload paired-store --seed 7 --seconds 30 --trace 1
    python3 perfbench/run.py --workload churn-cp --seed 7 --record-reference

``--trace 0`` times untraced passes of the workload and reports the
end-to-end metrics (median over passes).  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones (see ``layers.py``).  Every pass is checked against the
committed reference series of the seed, when there is one, and always
against itself (passes, legs and backends must agree); the last stdout
line is the result object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--record-reference`` runs one pass and stores its
series digests as the seed's reference.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references"

#: Passes a run makes at least, however short ``--seconds`` is.
MIN_PASSES = 3
#: Fresh-interpreter setup probes per run (``setup_s`` is their median).
SETUP_REPS = 9
#: The paper's run count per sweep point (``repro100_s`` scales to it).
PAPER_RUNS = 100


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
class Checker:
    """Counts sweep points checked and failed across a run's passes.

    A point fails when its sweep raised, when it differs from the
    committed reference of the seed, or when it differs from the first
    time the run saw the same point (another pass, the other backend,
    the cold leg of a resume).  A resume leg that computed anything
    fails all its points.  A corrupt reference fails every point.
    """

    def __init__(self, reference: dict[str, str] | None, status: str) -> None:
        self.reference = reference
        self.status = status
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, results) -> None:
        from perfbench.reference import point_digests

        for r in results:
            label = r.sweep.scenario
            if r.series is None:
                n = r.sweep.expected_points()
                self.attempted += n
                self.failed += n
                continue
            digests = point_digests(label, r.series)
            bad = set()
            if self.status.startswith("corrupt"):
                bad.update(digests)
            elif self.reference is not None:
                bad.update(p for p, d in digests.items() if self.reference.get(p) != d)
                prefix = f"{label}@"
                absent = [p for p in self.reference if p.startswith(prefix) and p not in digests]
                self.attempted += len(absent)
                self.failed += len(absent)
            for p, d in digests.items():
                if self.first.setdefault(p, d) != d:
                    bad.add(p)
            if r.leg == "resume" and r.computed != 0:
                bad.update(digests)
            self.attempted += len(digests)
            self.failed += len(bad)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
@contextmanager
def _scratch(name: str) -> Iterator[Path]:
    """A fresh directory under the checkout for stores and probes; removed after."""
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it


def _setup_seconds(workload: str, seed: int, workdir: Path, smoke: bool) -> list[float]:
    """``setup_s`` samples, each from a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = []
    for rep in range(SETUP_REPS):
        probe_dir = workdir / f"setup-{rep}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload,
               str(seed), str(probe_dir)] + (["--smoke"] if smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        shutil.rmtree(probe_dir, ignore_errors=True)
    return out


def _one_pass(workload, seed: int, workdir: Path, checker: Checker, clock=None):
    """Run and check one pass; ``(wall_s, cpu_s, results)``.

    With a ``clock`` the pass is traced: layer wrappers installed and
    the repo's metrics registry switched on.
    """
    from perfbench.layers import instrumented
    from perfbench.workloads import run_pass
    from repro import obs

    if clock is not None:
        obs.enable(workdir / "trace.jsonl")
    try:
        with instrumented(clock) if clock is not None else nullcontext():
            wall0, cpu0 = time.perf_counter(), time.process_time()
            results = run_pass(workload, seed, workdir)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        obs.close()  # no-op when the pass was untraced
    checker.check(results)
    return wall, cpu, results


def _passes(workload, seed, seconds, workdir, checker, *, trace: bool):
    """Passes until ``seconds`` are used (at least MIN_PASSES).

    Traced runs alternate untraced and traced passes, starting
    untraced.  Returns ``(untraced [(wall, cpu)], traced walls, clock,
    traced results)``.
    """
    from perfbench.layers import LayerClock

    clock = LayerClock() if trace else None
    plain: list[tuple[float, float]] = []
    traced: list[float] = []
    traced_results = []
    start = time.perf_counter()
    i = 0
    while True:
        if trace and i % 2 == 1:
            wall, _, results = _one_pass(workload, seed, workdir, checker, clock)
            traced.append(wall)
            traced_results.extend(results)
        else:
            wall, cpu, _ = _one_pass(workload, seed, workdir, checker)
            plain.append((wall, cpu))
        i += 1
        elapsed = time.perf_counter() - start
        # start another pass only if it should end within half a pass of the budget
        if i >= MIN_PASSES and elapsed + 0.5 * elapsed / i > seconds:
            return plain, traced, clock, traced_results


def end_to_end_metrics(workload, setup: list[float], plain, events: int) -> dict:
    wall = statistics.median(w for w, _ in plain)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(c for _, c in plain), "s"),
        "events_per_s": (events / wall, "1/s"),
        "repro100_s": (wall * PAPER_RUNS / workload.runs_per_point, "s"),
        "peak_mem_mb": (peak_kib / 1024, "MB"),
    }


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(clock, traced: list[float], plain, results) -> dict:
    """Per-layer metrics, averaged over the traced passes.

    ``.s`` is a layer's self time, except ``lane.*.s`` and
    ``executor.compute.s``, which are inclusive (their self times are
    ``lane.*.self_s`` and ``timeline.walk.s``).  The self times plus
    ``unattributed.s`` add up to ``trace.wall_s``.
    """
    from perfbench.layers import STORE_KINDS

    k = len(traced)
    stats = clock.stats
    m: dict[str, tuple[float, str]] = {}

    def calls(layer):
        m[f"{layer}.calls"] = (stats[layer].calls / k, "count")

    def self_s(layer, name):
        m[name] = (stats[layer].self_s / k, "s")

    def quantile(layer, q):
        m[f"{layer}.p{round(q * 100)}_us"] = (stats[layer].hist.quantile(q) * 1e6, "us")

    calls("topology.apply")
    self_s("topology.apply", "topology.apply.s")
    quantile("topology.apply", 0.5)
    quantile("topology.apply", 0.99)
    calls("topology.query")
    self_s("topology.query", "topology.query.s")
    for lane in ("bbb", "minim", "cp"):
        name = f"lane.{lane}"
        calls(name)
        m[f"{name}.s"] = (stats[name].total_s / k, "s")
        self_s(name, f"{name}.self_s")
        quantile(name, 0.5)
        quantile(name, 0.99)
    for kernel in ("dsatur", "smallest_last", "greedy"):
        self_s(f"coloring.{kernel}", f"coloring.{kernel}.s")
    for layer in ("matching.max_weight", "coloring.forbidden", "timeline.plan", "ckpt.resume"):
        calls(layer)
        self_s(layer, f"{layer}.s")
    self_s("network.measure", "network.measure.s")
    calls("ckpt.checkpoint")
    self_s("ckpt.checkpoint", "ckpt.checkpoint.s")
    quantile("ckpt.checkpoint", 0.9)

    c = Counter()
    for r in results:
        c.update(r.counters)
    hits = c["timeline.checkpoint.hits"]
    m["ckpt.hit_ratio"] = (_frac(hits, stats["ckpt.resume"].calls), "frac")
    saved = c["timeline.rounds.saved"]
    m["timeline.rounds_saved_frac"] = (_frac(saved, saved + c["timeline.rounds.replayed"]), "frac")
    m["ckpt.delta_bytes_per_link"] = (_frac(c["ckpt.delta.bytes"], c["ckpt.delta.stored"]), "bytes")
    hit = c["store.ckpt.hit"]
    m["ckpt.store_hit_frac"] = (_frac(hit, hit + c["store.ckpt.miss"]), "frac")
    dup = c["store.ckpt.dup"]
    m["ckpt.dup_write_frac"] = (_frac(dup, dup + c["store.ckpt.write"]), "frac")

    for kind in STORE_KINDS:
        p = f"store.{kind}"
        for op in ("save_point", "load_points", "put_ckpt", "get_ckpt", "open"):
            calls(f"{p}.{op}")
        for op in ("save_point", "load_points", "put_ckpt", "get_ckpt", "manifest", "open"):
            self_s(f"{p}.{op}", f"{p}.{op}.s")
        quantile(f"{p}.save_point", 0.9)
        quantile(f"{p}.put_ckpt", 0.9)
        resume = Counter()
        for r in results:
            if r.backend == kind and r.leg == "resume":
                resume.update(r.counters)
        hit = resume["store.point.hit"]
        m[f"{p}.cache_hit_frac"] = (_frac(hit, hit + resume["store.point.miss"]), "frac")

    calls("executor.compute")
    m["executor.compute.s"] = (stats["executor.compute"].total_s / k, "s")
    self_s("executor.compute", "timeline.walk.s")
    self_s("executor.execute", "executor.overhead.s")
    self_s("sweep.run", "sweep.overhead.s")

    m["trace.wall_s"] = (sum(traced) / k, "s")
    m["unattributed.s"] = ((sum(traced) - clock.attributed) / k, "s")
    untraced = statistics.median(w for w, _ in plain)
    m["trace.overhead_frac"] = (statistics.median(traced) / untraced - 1.0, "frac")
    return m


def self_time_metrics(metrics: dict) -> list[str]:
    """The metric names that partition ``trace.wall_s`` (with ``unattributed.s``)."""
    inclusive = {"lane.bbb.s", "lane.minim.s", "lane.cp.s", "executor.compute.s", "trace.wall_s"}
    return [
        name
        for name, (_, unit) in metrics.items()
        if unit == "s" and name not in inclusive and name != "unattributed.s"
    ]


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    smoke: bool = False,
    references: Path | None = REFERENCES,
) -> dict:
    """One benchmark run; returns the result object (last stdout line).

    ``references=None`` skips the reference check (smoke sizes have no
    committed reference); consistency is checked either way.
    """
    from perfbench.reference import load_reference
    from perfbench.workloads import SMOKE_WORKLOADS, WORKLOADS, logical_events

    workload = (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]
    reference, status = None, "missing"
    if references is not None:
        reference, status = load_reference(references / f"{name}.json", seed)
    if status != "ok":
        print(f"reference for seed {seed}: {status}; checking consistency only"
              if status == "missing" else f"reference for seed {seed}: {status}")
    checker = Checker(reference, status)
    with _scratch(name) as workdir:
        setup = [] if trace else _setup_seconds(name, seed, workdir, smoke)
        plain, traced, clock, results = _passes(
            workload, seed, seconds, workdir, checker, trace=trace
        )
    if trace:
        metrics = layer_metrics(clock, traced, plain, results)
        _print_layers(metrics)
    else:
        events = logical_events(workload, seed)
        metrics = end_to_end_metrics(workload, setup, plain, events)
        print(f"{len(plain)} passes, {events} logical events per pass, "
              f"setup probes {len(setup)}; pass walls "
              + " ".join(f"{w:.3f}" for w, _ in plain))
        for key, samples in (("wall_s", [w for w, _ in plain]), ("cpu_s", [c for _, c in plain]),
                             ("setup_s", setup)):
            q = statistics.quantiles(samples, n=4)
            print(f"  {key:8s} median {statistics.median(samples):.4f}  "
                  f"q1 {q[0]:.4f}  q3 {q[2]:.4f}  n={len(samples)}")
    return {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _print_layers(metrics: dict) -> None:
    """Self-time shares of the traced wall, largest first."""
    wall = metrics["trace.wall_s"][0]
    rows = [(metrics[n][0], n) for n in self_time_metrics(metrics)] + [
        (metrics["unattributed.s"][0], "unattributed.s")
    ]
    print(f"traced wall {wall:.3f} s (overhead {metrics['trace.overhead_frac'][0]:+.1%}); "
          "self time by layer:")
    for value, n in sorted(rows, reverse=True):
        if value > 0.0005 * wall:
            print(f"  {n:32s} {value:8.4f} s  {value / wall:6.1%}")


def record(name: str, seed: int) -> int:
    """Run one pass and store its digests as the seed's reference."""
    from perfbench.reference import point_digests, save_reference
    from perfbench.workloads import WORKLOADS, run_pass

    workload = WORKLOADS[name]
    checker = Checker(None, "missing")
    with _scratch(name) as workdir:
        results = run_pass(workload, seed, workdir)
    checker.check(results)
    if checker.failed:
        print(f"not recorded: {checker.failed} of {checker.attempted} points failed",
              file=sys.stderr)
        return 1
    digests: dict[str, str] = {}
    for r in results:
        digests.update(point_digests(r.sweep.scenario, r.series))
    save_reference(REFERENCES / f"{name}.json", name, seed, digests)
    print(f"recorded {len(digests)} points of {name} for seed {seed}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's series digests as its reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]  # the workloads define every knob themselves

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.record_reference:
        return record(args.workload, args.seed)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
