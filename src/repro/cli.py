"""Command-line interface: figures, scenarios, workers, stores, bench.

Usage (installed as ``minim-cdma`` or via ``python -m repro``)::

    minim-cdma fig10 --runs 10
    minim-cdma fig11 --runs 10 --n 100
    minim-cdma fig12 --runs 10 --rounds 10
    minim-cdma all   --runs 5 --out results/ --results results-store/
    minim-cdma scenario --list
    minim-cdma scenario poisson-cluster --runs 5
    minim-cdma scenario uniform-churn --results store.sqlite --executor worker
    minim-cdma worker --results store.sqlite
    minim-cdma store ls store.sqlite
    minim-cdma store stats store.sqlite
    minim-cdma store watch store.sqlite --interval 2
    minim-cdma store inspect store.sqlite TASKKEY
    minim-cdma store requeue store.sqlite
    minim-cdma store export store.sqlite --csv points.csv
    minim-cdma store compact results-store/
    minim-cdma store migrate results-store/ store.sqlite
    minim-cdma bench --runs 3
    minim-cdma scenario fig10-join --trace trace.jsonl
    minim-cdma report trace.jsonl
    minim-cdma report trace.jsonl --check --chrome trace.chrome.json

``fig10``/``fig11``/``fig12``/``all`` reproduce the paper's evaluation
and ``scenario`` runs a registered workload from the declarative
catalog.  The figure commands run the registered ``fig10-join`` …
``fig12-move-rounds`` scenarios, re-based by their flags (whose
defaults are the registry's), so both commands run the same specs
through :func:`repro.sim.sweep.run_sweep` and share stored points.  With
``--results PATH`` completed sweep points are persisted to a results
backend (JSON directory or SQLite file, sniffed from the path —
``--store-backend`` forces one) and re-invocations resume from cache.
``--executor worker`` publishes a sweep's tasks into the shared store
so any number of ``minim-cdma worker`` processes (or hosts sharing the
store) drain them concurrently.  Every sweep runs exactly ``--runs``
runs per point; raising ``--runs`` on a store computes only the new
runs.  ``store`` inspects (``ls``), reports live drain/quarantine
state (``stats`` / ``watch``), replays a quarantined task under the
serial executor with full traceback and requeues it on success
(``inspect KEY``), releases quarantined tasks back into the queue
(``requeue``), dumps point-level rows (``export --csv``), folds a JSON
directory into one SQLite table (``compact``) or copies between
backends (``migrate``).  ``--trace PATH`` turns on
the observability layer (:mod:`repro.obs`) for any sweep or worker
invocation: phase/task spans, queue events, and conflict-core /
timeline / store counters stream to a JSONL file (child processes
write ``PATH.<pid>`` sidecars), and ``report TRACE`` summarizes it —
top spans by self-time, cache-hit ratios, checkpoint replay savings,
per-worker timelines — with ``--chrome OUT`` exporting a
chrome://tracing / Perfetto file and ``--check`` failing the exit code
when planned tasks are missing closed spans.  ``bench`` times what the
end-to-end ``perfbench`` cannot reach — the tracing layer's own
overhead — writing ``BENCH_eventloop.json``.  Each experiment command prints metric tables
plus shape checks; ``--out DIR`` additionally writes markdown tables.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro.analysis.series import ExperimentSeries
from repro.analysis.shape_checks import check_all
from repro.sim.registry import available_scenarios, get_scenario
from repro.sim.results import ResultsBackend, open_backend
from repro.sim.sweep import run_sweep

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--runs", type=int, default=None, help="runs per data point (default 5; paper used 100)"
    )
    common.add_argument("--seed", type=int, default=2001, help="master seed")
    common.add_argument(
        "--processes", type=int, default=None, help="process-pool size for run fan-out"
    )
    common.add_argument("--out", type=Path, default=None, help="directory for markdown tables")
    common.add_argument(
        "--results",
        type=Path,
        default=None,
        help="results store (JSON directory or SQLite file; persists sweep "
        "points and re-runs resume from cache)",
    )
    common.add_argument(
        "--store-backend",
        choices=("auto", "json", "sqlite"),
        default="auto",
        help="results-backend kind (default: sniff from the --results path)",
    )
    common.add_argument(
        "--no-resume",
        action="store_true",
        help="recompute every point even when the results store already has it",
    )
    common.add_argument(
        "--executor",
        choices=("serial", "process", "worker"),
        default=None,
        help="execution layer (default: process pool when --processes > 1, else "
        "serial; worker publishes tasks into the shared --results store)",
    )
    common.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="write observability spans/events/metrics to this JSONL file "
        "(summarize with 'minim-cdma report PATH')",
    )

    parser = argparse.ArgumentParser(
        prog="minim-cdma",
        description="Reproduce the evaluation of Gupta (2001), 'Minimal CDMA "
        "Recoding Strategies in Power-Controlled Ad-Hoc Wireless Networks'.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the figure flags default to the registered paper scenarios
    join, avg_range, power, disp, rounds = (
        get_scenario(name) for rows in _FIGURES.values() for name, _, _ in rows
    )
    p10 = sub.add_parser("fig10", parents=[common], help="node-join experiment (Fig 10 a-f)")
    p10.add_argument("--n-values", type=int, nargs="+", default=list(join.sweep_values))
    p10.add_argument("--avg-ranges", type=float, nargs="+", default=list(avg_range.sweep_values))
    p10.add_argument("--skip-range-sweep", action="store_true")

    p11 = sub.add_parser("fig11", parents=[common], help="power-increase experiment (Fig 11 a-c)")
    p11.add_argument("--n", type=int, default=power.n)
    p11.add_argument("--raisefactors", type=float, nargs="+", default=list(power.sweep_values))

    p12 = sub.add_parser("fig12", parents=[common], help="movement experiment (Fig 12 a-d)")
    p12.add_argument("--n", type=int, default=disp.n)
    p12.add_argument("--rounds", type=int, default=rounds.sweep_values[0])
    p12.add_argument("--maxdisp", type=float, default=rounds.mobility.maxdisp)
    p12.add_argument("--maxdisps", type=float, nargs="+", default=list(disp.sweep_values))

    sub.add_parser(
        "all", parents=[common], help="run the five paper scenarios at their registered defaults"
    )

    ps = sub.add_parser("scenario", parents=[common], help="run a registered scenario sweep")
    ps.add_argument("name", nargs="?", default=None, help="registered scenario name")
    ps.add_argument("--list", action="store_true", help="list the scenario catalog and exit")
    ps.add_argument(
        "--strategies", nargs="+", default=None, help="strategy subset (default: the spec's)"
    )

    pw = sub.add_parser("worker", help="drain sweep tasks from a shared results store")
    pw.add_argument("--results", type=Path, required=True, help="the shared results store")
    pw.add_argument(
        "--store-backend",
        choices=("auto", "json", "sqlite"),
        default="auto",
        help="results-backend kind (default: sniff from the --results path)",
    )
    pw.add_argument(
        "--poll", type=float, default=0.2, help="seconds between queue scans (default 0.2)"
    )
    pw.add_argument(
        "--max-idle",
        type=float,
        default=10.0,
        help="exit after this many seconds without finding work (default 10)",
    )
    pw.add_argument("--once", action="store_true", help="one queue scan, then exit (no idle wait)")
    pw.add_argument(
        "--quarantine-after",
        type=int,
        default=3,
        help="park a task after this many broken leases instead of claiming "
        "it (0 or less disables; default 3)",
    )
    pw.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="write observability spans/events/metrics to this JSONL file",
    )

    pst = sub.add_parser(
        "store",
        help="inspect / watch / requeue / export / compact / migrate a results store, "
        "or list / gc its checkpoint links (ckpt)",
    )
    pst.add_argument(
        "action",
        choices=(
            "ls",
            "stats",
            "watch",
            "inspect",
            "requeue",
            "export",
            "compact",
            "migrate",
            "ckpt",
        ),
    )
    pst.add_argument("path", type=Path, help="the store (JSON directory or SQLite file)")
    pst.add_argument(
        "dest",
        nargs="?",
        default=None,
        metavar="DEST|KEY|SUB",
        help="migration target (migrate), quarantined task key (inspect, requeue), "
        "or checkpoint subaction 'ls'/'gc' (ckpt; default ls)",
    )
    pst.add_argument(
        "--store-backend",
        choices=("auto", "json", "sqlite"),
        default="auto",
        help="backend kind of PATH (default: sniff)",
    )
    pst.add_argument(
        "--dest-backend",
        choices=("auto", "json", "sqlite"),
        default="auto",
        help="backend kind of DEST (default: sniff)",
    )
    pst.add_argument(
        "--interval", type=float, default=2.0, help="watch: seconds between snapshots (default 2)"
    )
    pst.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="watch: stop after this many snapshots (default: until Ctrl-C)",
    )
    pst.add_argument(
        "--no-workers",
        action="store_true",
        help="stats/watch: skip per-worker throughput (cheaper on huge stores)",
    )
    pst.add_argument(
        "--key",
        action="append",
        default=None,
        metavar="KEY",
        help="requeue: release only this quarantined task (repeatable; "
        "default: all quarantined tasks)",
    )
    pst.add_argument(
        "--csv", type=Path, default=None, help="export: CSV output path ('-' for stdout)"
    )

    pb = sub.add_parser(
        "bench",
        help="time what perfbench cannot reach (the tracing layer's overhead)",
    )
    pb.add_argument(
        "--runs", type=int, default=3, help="paired off/on rounds of the tracing-overhead bench"
    )
    pb.add_argument("--seed", type=int, default=2001, help="trace-generation seed")
    pb.add_argument(
        "--out", type=Path, default=None, help="output path (default BENCH_eventloop.json)"
    )

    pr = sub.add_parser(
        "report",
        help="summarize a --trace JSONL file (top spans, cache-hit ratios, "
        "replay savings, per-worker timelines)",
    )
    pr.add_argument("trace", type=Path, help="trace file written by --trace")
    pr.add_argument(
        "--top", type=int, default=15, help="span rows to show, by self-time (default 15)"
    )
    pr.add_argument(
        "--check",
        action="store_true",
        help="verify trace completeness (every planned task has a closed "
        "span); exit 1 on problems",
    )
    pr.add_argument(
        "--chrome",
        type=Path,
        default=None,
        metavar="OUT",
        help="also export a Chrome trace-event file for chrome://tracing / Perfetto",
    )
    return parser


def _store_of(args: argparse.Namespace) -> ResultsBackend | None:
    if args.results is None:
        return None
    return open_backend(args.results, getattr(args, "store_backend", "auto"))


def _emit(series: ExperimentSeries, kind: str | None, out: Path | None) -> None:
    print(series.render_all())
    if series.notes:
        print(f"[{series.experiment}] {series.notes}")
    print()
    if kind is not None:
        for check in check_all(kind, series):
            print(check)
        print()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{series.experiment}.md"
        blocks = [f"## {series.experiment} ({series.runs} runs)"]
        for metric in series.metrics:
            blocks.append(f"### {metric}\n\n{series.to_markdown(metric)}")
        path.write_text("\n\n".join(blocks) + "\n")
        print(f"wrote {path}")


def _sweep_kwargs(args: argparse.Namespace) -> dict:
    return dict(
        runs=args.runs,
        seed=args.seed,
        processes=args.processes,
        store=_store_of(args),
        resume=not args.no_resume,
        executor=getattr(args, "executor", None),
    )


def _run_scenario_cmd(args: argparse.Namespace) -> int:
    if args.list or args.name is None:
        print("registered scenarios:")
        for name in available_scenarios():
            spec = get_scenario(name)
            sweep = ", ".join(f"{v:g}" for v in spec.sweep_values)
            print(f"  {name:<18} {spec.description}")
            print(f"  {'':<18} sweep {spec.sweep_axis} in [{sweep}]")
        return 0 if args.list else 2
    from repro.errors import ConfigurationError

    try:
        series = run_sweep(args.name, strategies=args.strategies, **_sweep_kwargs(args))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(series, None, args.out)
    return 0


def _run_bench_cmd(args: argparse.Namespace) -> int:
    from repro.sim.bench import run_obs_overhead_bench, write_bench_json

    try:
        entries = run_obs_overhead_bench(runs=args.runs, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_bench_table(entries)
    print(f"wrote {write_bench_json(entries, args.out)}")
    return 0


def _print_bench_table(entries: list[dict]) -> None:
    header = (
        f"{'scenario':<22} {'n':>5} {'mode':>12} {'events':>7} {'ev/sec':>10} "
        f"{'peak MiB':>9} {'speedup':>8}"
    )
    print(header)
    print("-" * len(header))
    for e in entries:
        speedup = f"{e['trace_on_vs_off']:.2f}x" if "trace_on_vs_off" in e else ""
        mem = f"{e['peak_mem_mb']:.1f}" if "peak_mem_mb" in e else ""
        print(
            f"{e['scenario']:<22} {e['n']:>5} {e['mode']:>12} {e['events']:>7} "
            f"{e['events_per_sec']:>10.0f} {mem:>9} {speedup:>8}"
        )


def _run_report_cmd(args: argparse.Namespace) -> int:
    from repro.obs.export import write_chrome_trace
    from repro.obs.report import check_trace, render_report
    from repro.obs.tracing import load_trace

    if not args.trace.exists():
        print(f"error: no trace file at {args.trace}", file=sys.stderr)
        return 2
    records = load_trace(args.trace)
    print(render_report(records, top=args.top))
    if args.chrome is not None:
        write_chrome_trace(records, args.chrome)
        print(f"wrote {args.chrome}")
    if args.check:
        problems = check_trace(records)
        if problems:
            for problem in problems:
                print(f"trace check: {problem}", file=sys.stderr)
            return 1
        print("trace check: ok")
    return 0


def _run_worker_cmd(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.sim.executor import run_worker

    backend = open_backend(args.results, args.store_backend)
    print(f"worker draining {backend.kind} store {backend.locator}")
    try:
        computed = run_worker(
            backend,
            poll=args.poll,
            max_idle=args.max_idle,
            once=args.once,
            quarantine_after=args.quarantine_after,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"worker exiting: computed {computed} task group(s)")
    return 0


def _run_store_cmd(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.sim.results import JsonDirBackend, migrate_store

    backend = open_backend(args.path, args.store_backend)
    try:
        if args.action == "ls":
            info = backend.describe()
            print(f"{info['backend']} store {info['locator']}")
            for field in ("points", "manifests", "tasks", "claims", "quarantined"):
                print(f"  {field:<11} {info[field]}")
            print(f"  {'series':<11} {len(info['series'])}")
            for experiment_id in info["series"]:
                print(f"    {experiment_id}")
            return 0
        if args.action in ("stats", "watch"):
            from repro.sim.monitor import StoreMonitor

            monitor = StoreMonitor(backend)
            if args.action == "stats":
                print(monitor.stats(workers=not args.no_workers).render())
                return 0
            monitor.watch(
                interval=args.interval,
                iterations=args.iterations,
                workers=not args.no_workers,
            )
            return 0
        if args.action == "inspect":
            from repro.sim.monitor import inspect_quarantined

            if args.dest is None:
                print("error: inspect needs a quarantined task KEY", file=sys.stderr)
                return 2
            # non-ConfigurationError failures propagate with their full
            # traceback — surfacing the crash is the point of triage
            inspect_quarantined(backend, args.dest)
            return 0
        if args.action == "requeue":
            named = [*(args.key or ()), *([args.dest] if args.dest else ())]
            keys = named or backend.list_quarantined()
            released = 0
            for key in keys:
                if backend.requeue_quarantined(key):
                    print(f"requeued {key}")
                    released += 1
                else:
                    print(f"error: {key} is not quarantined", file=sys.stderr)
            print(f"released {released} task(s) back into {backend.locator}")
            return 0 if released == len(keys) else 2
        if args.action == "export":
            from repro.sim.monitor import export_csv

            if args.csv is None:
                print("error: export needs --csv PATH ('-' for stdout)", file=sys.stderr)
                return 2
            if str(args.csv) == "-":
                export_csv(backend, sys.stdout)
            else:
                rows = export_csv(backend, args.csv)
                print(f"wrote {rows} row(s) to {args.csv}")
            return 0
        if args.action == "ckpt":
            sub_action = args.dest or "ls"
            if sub_action == "gc":
                counts = backend.gc_checkpoints()
                print(
                    f"pruned {counts['removed']} checkpoint link(s) "
                    f"({counts['kept']} kept)"
                )
                return 0
            if sub_action != "ls":
                print(f"error: unknown ckpt subaction {sub_action!r} (ls/gc)", file=sys.stderr)
                return 2
            stats = backend.checkpoint_stats()
            print(f"{stats['count']} checkpoint link(s), {stats['bytes']} byte(s)")
            for key in backend.list_checkpoints():
                record = backend.load_checkpoint_record(key) or {}
                base = record.get("base") or "<fresh>"
                points = len(record.get("points") or ())
                print(f"  {key}  base={base}  version={record.get('version')}  points={points}")
            return 0
        if args.action == "compact":
            if not isinstance(backend, JsonDirBackend):
                pruned = backend.gc_checkpoints()["removed"]
                backend.compact()
                print(f"vacuumed {backend.locator} ({pruned} checkpoint link(s) pruned)")
                return 0
            points = len(backend.list_points())
            compacted = backend.compact()
            print(
                f"compacted {points} point file(s) from {backend.locator} "
                f"into {compacted.locator}"
            )
            return 0
        # migrate
        if args.dest is None:
            print("error: migrate needs a DEST path", file=sys.stderr)
            return 2
        dest = open_backend(Path(args.dest), args.dest_backend)
        counts = migrate_store(backend, dest)
        print(
            f"migrated {counts['points']} point(s), {counts['manifests']} "
            f"manifest(s), {counts['series']} series from {backend.locator} "
            f"({backend.kind}) to {dest.locator} ({dest.kind})"
        )
        return 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.errors import ConfigurationError

    args = build_parser().parse_args(argv)
    if args.command == "report":
        return _run_report_cmd(args)
    tracing = getattr(args, "trace", None) is not None
    if tracing:
        from repro import obs

        obs.enable(args.trace)
    try:
        if args.command == "scenario":
            return _run_scenario_cmd(args)
        if args.command == "bench":
            return _run_bench_cmd(args)
        if args.command == "worker":
            return _run_worker_cmd(args)
        if args.command == "store":
            return _run_store_cmd(args)
        try:
            return _run_figures(args)
        except ConfigurationError as exc:
            # mis-set flags and env misconfiguration (a bad REPRO_RUNS)
            # get the same clean error the scenario command prints, not
            # a traceback
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        if tracing:
            from repro import obs

            obs.close()
            print(f"wrote trace {args.trace}")


#: The paper-figure commands.  Each row is a registered scenario, the
#: shape checks its series gets (``None``: none) and the spec fields the
#: command's flags override.
_FIGURES = {
    "fig10": (
        ("fig10-join", "join", lambda args, spec: {"sweep_values": tuple(args.n_values)}),
        ("fig10-range", None, lambda args, spec: {"sweep_values": tuple(args.avg_ranges)}),
    ),
    "fig11": (
        (
            "fig11-power",
            "power",
            lambda args, spec: {"n": args.n, "sweep_values": tuple(args.raisefactors)},
        ),
    ),
    "fig12": (
        (
            "fig12-move-disp",
            None,
            lambda args, spec: {"n": args.n, "sweep_values": tuple(args.maxdisps)},
        ),
        (
            "fig12-move-rounds",
            "move",
            lambda args, spec: {
                "n": args.n,
                "sweep_values": (args.rounds,),
                "mobility": replace(spec.mobility, maxdisp=args.maxdisp),
            },
        ),
    ),
}


def _run_figures(args: argparse.Namespace) -> int:
    """Run the paper-figure commands (``fig10``/``fig11``/``fig12``/``all``).

    ``all`` runs every row of every figure at the registry defaults.
    """
    commands = tuple(_FIGURES) if args.command == "all" else (args.command,)
    common = _sweep_kwargs(args)
    for command in commands:
        for name, kind, overrides in _FIGURES[command]:
            if name == "fig10-range" and getattr(args, "skip_range_sweep", False):
                continue
            spec = get_scenario(name)
            if args.command != "all":
                spec = replace(spec, **overrides(args, spec))
            _emit(run_sweep(spec, **common), kind, args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
