"""Live observability over a results store: stats, watch, CSV export.

An operator running a worker fleet against a shared store previously
had no view into the drain: which tasks are pending, who holds claims
and for how long, which workers are actually producing points, and
whether anything got quarantined.  :class:`StoreMonitor` answers all of
that from the :class:`~repro.sim.results.ResultsBackend` alone — no
side channel to the workers — powering ``minim-cdma store stats`` (one
snapshot) and ``store watch`` (a polling loop).

Two data sources feed a snapshot:

* the backend's cheap aggregates
  (:meth:`~repro.sim.results.ResultsBackend.claim_info`, quarantine
  listings, break counters and key counts — each fetched once per
  snapshot; :meth:`~repro.sim.results.ResultsBackend.queue_stats` is
  the one-call programmatic equivalent): task, claim, quarantine and
  lease-break counts plus claim owners/ages — safe to poll every
  second on large stores;
* the point records' provenance contexts (``worker`` / ``saved_at``,
  stamped by the execution layer as each point lands), from which
  per-worker throughput is derived, joined with the workers' heartbeat
  stamps (:meth:`~repro.sim.results.ResultsBackend.heartbeats`) so a
  worker whose last beat is older than the lease TTL is flagged
  ``STALE``.  This walks every point record, so
  :meth:`StoreMonitor.stats` can skip it with ``workers=False`` and
  ``store watch`` exposes the same switch.

:func:`export_csv` is the point-level analytics escape hatch: one CSV
row per (point, strategy[, round]) with the sweep coordinates, run
index, metric triple and worker provenance, consumable by any
dataframe library without new dependencies.

:func:`inspect_quarantined` is the triage half of the quarantine
machinery: replay a parked task group under the serial executor — in
process, no pool, full traceback on failure — and release it back into
the queue when it completes (its points are already saved, so the next
drain just cleans the task up).
"""

from __future__ import annotations

import csv
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from repro.errors import ConfigurationError
from repro.sim.results import DEFAULT_CLAIM_TTL, ResultsBackend

__all__ = [
    "StoreMonitor",
    "StoreStats",
    "WorkerStats",
    "export_csv",
    "inspect_quarantined",
]

#: Column order of ``store export`` rows (stable: scripts parse this).
CSV_COLUMNS = (
    "point_key",
    "experiment",
    "scenario",
    "sweep_axis",
    "sweep_value",
    "run",
    "seed",
    "measure",
    "strategy",
    "round",
    "max_color",
    "recodings",
    "messages",
    "worker",
    "saved_at",
)


def _fmt_bytes(n: int | float) -> str:
    """Human byte size (``1234`` → ``1.2 kB``)."""
    n = float(n)
    for unit in ("B", "kB", "MB", "GB"):
        if n < 1000 or unit == "GB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1000
    return f"{n:.1f} GB"  # pragma: no cover - unreachable


@dataclass(frozen=True)
class WorkerStats:
    """Throughput of one worker, derived from point provenance.

    ``heartbeat_age`` is seconds since the worker's last heartbeat
    stamp (:meth:`~repro.sim.results.ResultsBackend.record_heartbeat`),
    or ``None`` for workers that never stamped one (pre-heartbeat
    fleets, or points saved outside a worker loop); ``stale`` flags a
    heartbeat older than the lease TTL — a live worker beats every
    third of the TTL, so missing a whole TTL means the process is gone
    or wedged and its claims are heading for a lease break.
    """

    worker: str
    points: int
    first_saved_at: float
    last_saved_at: float
    heartbeat_age: float | None = None
    stale: bool = False

    @property
    def points_per_sec(self) -> float | None:
        """Observed save rate; ``None`` below two timestamped points."""
        span = self.last_saved_at - self.first_saved_at
        if self.points < 2 or span <= 0:
            return None
        return (self.points - 1) / span


@dataclass(frozen=True)
class StoreStats:
    """One observability snapshot of a results store."""

    backend: str
    locator: str
    points: int
    manifests: int
    series: int
    tasks: int
    claims: int
    oldest_claim_age: float
    quarantined: int
    lease_breaks: int
    checkpoints: dict = field(default_factory=dict)
    claim_details: dict[str, dict] = field(default_factory=dict)
    quarantine_reasons: dict[str, str] = field(default_factory=dict)
    workers: tuple[WorkerStats, ...] = ()

    @property
    def tasks_pending(self) -> int:
        """Published tasks not currently under claim."""
        return max(0, self.tasks - self.claims)

    def render(self) -> str:
        """The human view ``store stats`` / ``store watch`` print."""
        lines = [
            f"{self.backend} store {self.locator}",
            f"  points      {self.points}",
            f"  manifests   {self.manifests}",
            f"  series      {self.series}",
            f"  tasks       {self.tasks} ({self.tasks_pending} pending, "
            f"{self.claims} claimed)",
            f"  quarantined {self.quarantined}",
            f"  lease breaks {self.lease_breaks}",
        ]
        if self.checkpoints:
            c = self.checkpoints
            lines.append(f"  checkpoints {c.get('count', 0)} ({_fmt_bytes(c.get('bytes', 0))})")
        if self.claim_details:
            lines.append("  claims:")
            for key, info in sorted(self.claim_details.items()):
                lines.append(f"    {key}  owner={info['owner']}  age={info['age']:.1f}s")
        if self.quarantine_reasons:
            lines.append("  quarantine:")
            for key, reason in sorted(self.quarantine_reasons.items()):
                lines.append(f"    {key}  {reason or '<no reason recorded>'}")
        if self.workers:
            lines.append("  workers:")
            for w in sorted(self.workers, key=lambda w: w.worker):
                rate = f"{w.points_per_sec:.2f}/s" if w.points_per_sec is not None else "-"
                beat = (
                    f"heartbeat {w.heartbeat_age:.0f}s ago" if w.heartbeat_age is not None else ""
                )
                if w.stale:
                    beat += "  STALE (no heartbeat within the lease TTL)"
                lines.append(f"    {w.worker:<24} {w.points:>6} point(s)  {rate}  {beat}".rstrip())
        return "\n".join(lines)


class StoreMonitor:
    """Observability over one results backend (``store stats/watch``).

    ``lease_ttl`` is the staleness horizon for worker heartbeats: a
    worker whose last heartbeat is older than this is flagged ``STALE``
    in snapshots (workers beat every third of the claim TTL, so the
    monitor's default matches the executors').
    """

    def __init__(self, backend: ResultsBackend, *, lease_ttl: float = DEFAULT_CLAIM_TTL) -> None:
        self.backend = backend
        self.lease_ttl = lease_ttl

    def stats(self, *, workers: bool = True) -> StoreStats:
        """Take one snapshot.

        ``workers=False`` skips the point-record walk (per-worker
        throughput and nothing else), keeping the snapshot cheap on
        very large stores.  Claim and quarantine state are fetched
        exactly once and handed to
        :meth:`~repro.sim.results.ResultsBackend.queue_stats` for the
        aggregate counts — one snapshot never pays the backend twice
        for the same scan, and SQLite keeps its single-connection count
        path.
        """
        backend = self.backend
        claim_details = backend.claim_info()
        parked = backend.list_quarantined()
        aggregate = backend.queue_stats(claim_info=claim_details, quarantined=parked)
        quarantine_reasons = {
            key: (backend.load_quarantined(key) or {}).get("reason", "") for key in parked
        }
        return StoreStats(
            backend=aggregate["backend"],
            locator=aggregate["locator"],
            points=aggregate["points"],
            manifests=aggregate["manifests"],
            series=aggregate["series"],
            tasks=aggregate["tasks"],
            claims=aggregate["claims"],
            oldest_claim_age=aggregate["oldest_claim_age"],
            quarantined=aggregate["quarantined"],
            lease_breaks=aggregate["lease_breaks"],
            checkpoints=aggregate.get("checkpoints", {}),
            claim_details=claim_details,
            quarantine_reasons=quarantine_reasons,
            workers=self.worker_stats() if workers else (),
        )

    def worker_stats(self) -> tuple[WorkerStats, ...]:
        """Per-worker throughput from the points' provenance contexts.

        Points computed before provenance stamping existed (or saved
        directly through ``save_point``) have no worker id and are
        grouped under ``"<unattributed>"``.  Heartbeat stamps join in
        (age + staleness against ``lease_ttl``); a worker that has
        heartbeats but no saved points yet still gets a row, so a
        wedged worker that never produced anything is visible.
        """
        per_worker: dict[str, list[float]] = {}
        counts: dict[str, int] = {}
        for _, record in self.backend.iter_point_records():
            context = record.get("context") or {}
            worker = str(context.get("worker") or "<unattributed>")
            counts[worker] = counts.get(worker, 0) + 1
            saved_at = context.get("saved_at")
            if isinstance(saved_at, (int, float)):
                per_worker.setdefault(worker, []).append(float(saved_at))
        beats = self.backend.heartbeats()
        for worker in beats:
            counts.setdefault(worker, 0)
        now = time.time()
        out = []
        for worker, n in counts.items():
            stamps = per_worker.get(worker, [])
            first = min(stamps) if stamps else 0.0
            last = max(stamps) if stamps else 0.0
            age = now - beats[worker] if worker in beats else None
            out.append(
                WorkerStats(
                    worker=worker,
                    points=n,
                    first_saved_at=first,
                    last_saved_at=last,
                    heartbeat_age=age,
                    stale=age is not None and age > self.lease_ttl,
                )
            )
        return tuple(sorted(out, key=lambda w: w.worker))

    def watch(
        self,
        *,
        interval: float = 2.0,
        iterations: int | None = None,
        workers: bool = True,
        stream: IO[str] | None = None,
    ) -> int:
        """Poll and print snapshots until interrupted (``store watch``).

        ``iterations`` bounds the loop (``None`` runs until Ctrl-C —
        the KeyboardInterrupt is absorbed so a watch session exits
        cleanly); returns the number of snapshots printed.
        """
        if interval <= 0:
            raise ConfigurationError(f"watch interval must be > 0, got {interval}")
        stream = stream if stream is not None else sys.stdout
        printed = 0
        try:
            while iterations is None or printed < iterations:
                if printed:
                    time.sleep(interval)
                    print(file=stream)
                snapshot = self.stats(workers=workers)
                print(f"[{time.strftime('%H:%M:%S')}]", file=stream)
                print(snapshot.render(), file=stream)
                printed += 1
        except KeyboardInterrupt:
            pass
        return printed


def _csv_rows_for_point(key: str, record: dict):
    """Flatten one point record into CSV rows (one per strategy/round)."""
    context = record.get("context") or {}
    result = record.get("result")
    if not isinstance(result, list):
        return
    strategies = context.get("strategies") or []
    base = {
        "point_key": key,
        "experiment": context.get("experiment", ""),
        "scenario": context.get("scenario", ""),
        "sweep_axis": context.get("sweep_axis", ""),
        "sweep_value": context.get("sweep_value", ""),
        "run": context.get("run", ""),
        "seed": context.get("seed", ""),
        "measure": context.get("measure", ""),
        "worker": context.get("worker", ""),
        "saved_at": context.get("saved_at", ""),
    }
    for si, lane in enumerate(result):
        strategy = strategies[si] if si < len(strategies) else f"s{si}"
        if lane and isinstance(lane[0], list):  # delta_rounds: one triple per round
            rounds = [(t + 1, triple) for t, triple in enumerate(lane)]
        else:
            rounds = [("", lane)]
        for round_no, triple in rounds:
            if not (isinstance(triple, list) and len(triple) == 3):
                continue
            yield {
                **base,
                "strategy": strategy,
                "round": round_no,
                "max_color": triple[0],
                "recodings": triple[1],
                "messages": triple[2],
            }


def export_csv(backend: ResultsBackend, out: Path | str | IO[str]) -> int:
    """Dump point-level rows from any backend as CSV; returns row count.

    Columns are :data:`CSV_COLUMNS`.  For absolute/delta measures the
    metric columns hold the point's triple (deltas for delta measures —
    the ``measure`` column says which) and ``round`` is empty; for
    ``delta_rounds`` points each perturbation round becomes its own row
    with the 1-based round number.
    """
    if hasattr(out, "write"):
        return _write_csv(backend, out)  # type: ignore[arg-type]
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        return _write_csv(backend, fh)


def _write_csv(backend: ResultsBackend, fh: IO[str]) -> int:
    writer = csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS))
    writer.writeheader()
    rows = 0
    for key, record in backend.iter_point_records():
        for row in _csv_rows_for_point(key, record):
            writer.writerow(row)
            rows += 1
    return rows


# ----------------------------------------------------------------------
# Quarantine triage (``store inspect``)
# ----------------------------------------------------------------------
def inspect_quarantined(
    backend: ResultsBackend, key: str, *, stream: IO[str] | None = None
) -> dict:
    """Replay a quarantined task group serially; requeue it on success.

    The debugger-friendly half of poison-task quarantine: rebuild the
    parked descriptor, print its quarantine context (reason, lease
    breaks, park time), and recompute it under the serial executor — in
    the calling process, so a reproducible crash surfaces with its full
    traceback instead of a broken-lease counter.  When the replay
    completes, the member points are persisted and the task is
    requeued with a clean slate (the next drain sees the points and
    simply cleans the task up), so a spuriously-parked group needs no
    separate ``store requeue``.  Returns a summary dict
    (``members``/``requeued``/the quarantine context).
    """
    from repro.sim.executor import SerialExecutor, group_from_payload

    record = backend.load_quarantined(key)
    if record is None:
        raise ConfigurationError(f"{key!r} is not quarantined in {backend.locator}")
    stream = stream if stream is not None else sys.stdout
    reason = record.get("reason", "")
    breaks = record.get("lease_breaks", 0)
    print(f"quarantined task {key}", file=stream)
    print(f"  reason       {reason or '<no reason recorded>'}", file=stream)
    print(f"  lease breaks {breaks}", file=stream)
    payload = record.get("payload")
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"quarantine record {key!r} in {backend.locator} has no task payload"
        )
    group = group_from_payload(payload)  # undecodable descriptors raise here
    print(
        f"  replaying {len(group.points)} member(s) under the serial executor…",
        file=stream,
    )
    results = SerialExecutor().execute([group], backend=backend, resume=False)
    requeued = backend.requeue_quarantined(key)
    print(
        f"  replay ok: {len(results)} point(s) computed and saved; "
        f"{'requeued with a clean slate' if requeued else 'requeue raced a peer'}",
        file=stream,
    )
    return {
        "key": key,
        "reason": reason,
        "lease_breaks": breaks,
        "members": len(results),
        "requeued": requeued,
    }
