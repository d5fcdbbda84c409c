"""CI gate: compare a fresh component bench against the committed baseline.

Usage::

    python benchmarks/check_bench_regression.py \
        --baseline BENCH_eventloop.json --fresh bench-fresh.json [--min-ratio 0.5] \
        [--min-speedup obs-overhead/on:trace_on_vs_off=0.97]

Entries are matched by ``(scenario, mode)`` and compared on
``events_per_sec``.  The gate fails (exit 1) when any matched entry
drops below ``min-ratio`` times the committed baseline — loose enough
to absorb runner-hardware variance, tight enough to catch a hot path
losing its compiled kernel or its memo (those regressions are 2-4x,
not 2x variance).  A baseline entry missing from the fresh run fails the
gate too: a deleted or renamed family must not drop its throughput
check silently (regenerate the baseline with it instead).  A fresh
entry missing from the baseline is only reported (coverage may grow).

``--min-speedup [SCENARIO/MODE:]FIELD=MIN`` (repeatable) additionally
gates the fresh run's *intra-run* ratios — the tracing layer's
``trace_on_vs_off`` — which don't depend on runner hardware and
therefore hold a much tighter floor than cross-run throughput.
Unscoped, every fresh entry carrying ``FIELD`` must report at least
``MIN``; with the optional ``SCENARIO/MODE:`` scope only that one entry
is gated.  Either way, a floor that matches no fresh entry fails the
gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _by_key(entries: list[dict]) -> dict[tuple[str, str], dict]:
    return {(e["scenario"], e["mode"]): e for e in entries}


def _parse_field_specs(
    parser: argparse.ArgumentParser, items: list[str], flag: str
) -> dict[tuple[tuple[str, str] | None, str], float]:
    """Parse repeatable ``[SCENARIO/MODE:]FIELD=BOUND`` specs.

    Returns ``(scope, field) -> bound``, where scope is a
    ``(scenario, mode)`` pair or None for "every entry carrying the
    field".
    """
    specs: dict[tuple[tuple[str, str] | None, str], float] = {}
    for item in items:
        spec, _, bound = item.partition("=")
        scope_part, colon, field = spec.rpartition(":")
        scope: tuple[str, str] | None = None
        if colon:
            scenario, slash, mode = scope_part.partition("/")
            if not scenario or not slash or not mode:
                parser.error(f"{flag} scope expects SCENARIO/MODE:, got {item!r}")
            scope = (scenario, mode)
        if not field or not bound:
            parser.error(f"{flag} expects [SCENARIO/MODE:]FIELD=BOUND, got {item!r}")
        try:
            specs[(scope, field)] = float(bound)
        except ValueError:
            parser.error(f"{flag} bound must be a number, got {item!r}")
    return specs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--fresh", type=Path, required=True)
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.5,
        help="fail when fresh events/sec < min-ratio * baseline (default 0.5)",
    )
    parser.add_argument(
        "--min-speedup",
        action="append",
        default=[],
        metavar="[SCENARIO/MODE:]FIELD=MIN",
        help="fail when a fresh entry's FIELD speedup is below MIN "
        "(repeatable, e.g. obs-overhead/on:trace_on_vs_off=0.97)",
    )
    args = parser.parse_args(argv)

    speedup_floors = _parse_field_specs(parser, args.min_speedup, "--min-speedup")

    baseline = _by_key(json.loads(args.baseline.read_text()))
    fresh = _by_key(json.loads(args.fresh.read_text()))

    failures: list[str] = []
    for key in sorted(baseline.keys() | fresh.keys()):
        scenario, mode = key
        if key not in fresh:
            failures.append(f"{scenario}/{mode} missing from the fresh run")
            continue
        if key not in baseline:
            print(f"note: {scenario}/{mode} missing from baseline; skipping")
            continue
        base_eps = baseline[key]["events_per_sec"]
        fresh_eps = fresh[key]["events_per_sec"]
        ratio = fresh_eps / base_eps if base_eps > 0 else float("inf")
        verdict = "ok" if ratio >= args.min_ratio else "REGRESSION"
        print(
            f"{scenario:<22} {mode:>12}: baseline {base_eps:>10.0f} ev/s, "
            f"fresh {fresh_eps:>10.0f} ev/s ({ratio:.2f}x) {verdict}"
        )
        if ratio < args.min_ratio:
            failures.append(f"{scenario}/{mode} at {ratio:.2f}x (< {args.min_ratio}x)")

    floors_matched = dict.fromkeys(speedup_floors, 0)
    for key in sorted(fresh):
        entry = fresh[key]
        scenario, mode = key
        for (scope, field), minimum in speedup_floors.items():
            if field not in entry or (scope is not None and scope != key):
                continue
            floors_matched[(scope, field)] += 1
            value = entry[field]
            verdict = "ok" if value >= minimum else "REGRESSION"
            print(
                f"{scenario:<22} {mode:>12}: {field} {value:.2f}x "
                f"(floor {minimum:.2f}x) {verdict}"
            )
            if value < minimum:
                failures.append(f"{scenario}/{mode} {field} at {value:.2f}x (< {minimum}x)")

    for (scope, field), matched in floors_matched.items():
        if matched == 0:
            # an unmatched floor means the bench stopped emitting the
            # field (or the CI arg is typo'd) — the gate must not
            # silently become a no-op
            label = field if scope is None else f"{scope[0]}/{scope[1]}:{field}"
            failures.append(f"--min-speedup {label}: no fresh entry carries this field")

    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nbench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
