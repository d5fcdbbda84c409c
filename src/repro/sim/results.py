"""Pluggable results backends for experiment sweeps.

A sweep persists everything through one :class:`ResultsBackend`, as
JSON records in eight key-value tables:

* **points** — one record per (sweep point, run), keyed by a content
  hash of the fully resolved point spec plus the run's seed.  Because
  keys depend only on *what was computed*, re-invoking an identical
  sweep finds every point already present and skips the computation
  (resume / caching); enlarging ``runs`` or appending sweep values
  recomputes only the missing points.
* **manifests** — one run manifest per sweep (content-keyed by the
  sweep's spec × runs × seed hash): the spec, the point keys it covers,
  the computed/cached split of the last invocation, and an embedded
  copy of the assembled series.
* **series** — the most recently assembled
  :class:`~repro.analysis.series.ExperimentSeries` per experiment id
  (latest-wins by design; the per-sweep copy inside the manifest stays
  addressable by sweep key).
* **tasks** — the shared work queue of the worker executor
  (:mod:`repro.sim.executor`): pending task descriptors, drained under
  TTL claims (leases) by any number of worker processes, or hosts on a
  shared filesystem, with at-least-once semantics.
* **churn + quarantine** — the control plane's health state: per-task
  lease-break counters (bumped whenever :meth:`~ResultsBackend.try_claim`
  breaks a stale lease) and a quarantine table holding descriptors that
  churned too often or failed to decode, so one poison task stops being
  re-claimed forever.  ``minim-cdma store stats`` surfaces both and
  ``store requeue`` releases quarantined tasks back into the queue.
* **heartbeats** — each worker's latest liveness stamp, so the monitor
  flags a stale worker instead of showing it as silently live.
* **checkpoints** — content-keyed delta-chain links of the
  execution timeline (:mod:`repro.sim.timeline`): each record is one
  stage boundary serialized as an O(changes) delta against its base
  link.  Conditional puts (if-absent) make concurrent workers
  race-free, and because keys commit to the whole event prefix, any
  process or host that hits a stored key resumes the shared prefix
  instead of replaying it.  ``store ckpt <path> ls/gc`` lists and
  prunes the table; :meth:`~ResultsBackend.gc_checkpoints` keeps only
  links some live manifest's points reference.

Every table is written once, on :class:`ResultsBackend`, over a small
storage interface (per-table get/put/put-if-absent/delete/keys, bulk
items and stat) plus the claim primitives.  Two backends implement it:

* :class:`JsonDirBackend` — one JSON file per record under a root
  directory, rsyncable and diffable with ordinary tools.  Claims are
  ``O_EXCL`` lease files.
* :class:`SqliteBackend` — one stdlib-``sqlite3`` file holding every
  table as rows of one ``artifacts`` table, for sweeps with 10⁴+
  points where a directory of tiny JSON files stops scaling.  Claims
  are ``INSERT OR IGNORE`` rows of a ``claims`` table.

:func:`open_backend` resolves a path (or locator string) to the right
backend, :func:`migrate_store` copies the durable tables of any backend
into any other, and :meth:`JsonDirBackend.compact` folds a JSON
directory store into a single SQLite file in place.  The storage
contract and the on-disk layout of both backends are described in
``docs/architecture/results-store.md``.
"""

from __future__ import annotations

import abc
import dataclasses
import hashlib
import json
import os
import sqlite3
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import metrics as _met

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.analysis.series import ExperimentSeries
    from repro.sim.scenarios import ScenarioSpec

__all__ = [
    "CheckpointScope",
    "JsonDirBackend",
    "ResultsBackend",
    "SqliteBackend",
    "migrate_store",
    "open_backend",
    "point_key",
    "seed_token",
    "spec_digest",
]

#: Bump when the artifact schema changes incompatibly; part of every key
#: so stale stores never satisfy a lookup from newer code.
_SCHEMA_VERSION = 1

#: Default lease lifetime: a claim older than this counts as abandoned
#: (its worker died) and may be re-claimed by anyone.
DEFAULT_CLAIM_TTL = 60.0

#: The SQLite file a compacted JSON store folds into (and the marker
#: :func:`open_backend` sniffs to route a directory to SQLite).
_SQLITE_BASENAME = "store.sqlite"
_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: Every key-value table of a store.  Stores written by older code may
#: also hold a ``meta`` table of checkpoint counters; nothing reads it.
_TABLES = (
    "points",
    "manifests",
    "series",
    "tasks",
    "churn",
    "quarantine",
    "heartbeats",
    "checkpoints",
)

#: The tables :func:`migrate_store` copies; the rest is queue state.
_DURABLE_TABLES = ("points", "manifests", "series", "checkpoints")


def _canonical(obj: Any) -> str:
    """Deterministic JSON for hashing (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def spec_digest(spec: "ScenarioSpec", extra: dict | None = None) -> str:
    """Stable content hash of a scenario spec (plus optional context).

    Two specs hash equal iff every field — placement, mobility, churn,
    power, strategies, sweep configuration, measure — is equal, so a
    digest names one exact computation.
    """
    payload = {
        "schema": _SCHEMA_VERSION,
        "spec": dataclasses.asdict(spec),
        "extra": extra or {},
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()[:20]


def seed_token(seed) -> str:
    """A stable string identity for a run seed.

    Accepts ints and ``numpy.random.SeedSequence`` objects (identified
    by entropy + spawn key, i.e. their reproducible derivation path —
    not by object identity).
    """
    entropy = getattr(seed, "entropy", None)
    if entropy is not None:
        spawn_key = tuple(getattr(seed, "spawn_key", ()))
        return f"ss-{entropy}-{'.'.join(map(str, spawn_key)) or 'root'}"
    return f"int-{int(seed)}"


def point_key(point_spec: "ScenarioSpec", seed) -> str:
    """The artifact key of one (resolved point spec, run seed) pair."""
    return spec_digest(point_spec, extra={"seed": seed_token(seed)})


class ResultsBackend(abc.ABC):
    """The nine store tables, written once over a small storage interface.

    Every domain method below is a short call into the storage
    primitives a backend implements:

    * per table: :meth:`_get`, :meth:`_put`, :meth:`_put_if_absent`,
      :meth:`_delete` and :meth:`_keys`;
    * in bulk: :meth:`_items` (records of a table, or of some keys of
      it) and :meth:`_stat` (record count and stored bytes);
    * the claim primitives :meth:`try_claim`, :meth:`renew_claim`,
      :meth:`release_claim`, :meth:`claim_info` and :meth:`claim_age`,
      whose atomicity differs per backend.

    Every key entering through a domain method or a claim primitive is
    checked by :meth:`_key`, so both backends accept the same keys.
    """

    #: String that re-opens this backend in another process via
    #: :func:`open_backend` (a directory for JSON, a file for SQLite).
    locator: str

    #: Short backend kind tag (``"json"`` / ``"sqlite"``).
    kind: str

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def point_key(self, point_spec: "ScenarioSpec", seed) -> str:
        """The artifact key of one (resolved point spec, run seed) pair."""
        return point_key(point_spec, seed)

    def _key(self, key: str) -> str:
        """``key`` itself when it is a valid store key.

        A key names one file of the JSON layout, so a key that is empty,
        starts with ``.``, or holds a path separator or NUL raises a
        :class:`ConfigurationError` on every backend alike.
        """
        if not key or key[0] == "." or any(c in key for c in "/\\\0"):
            raise ConfigurationError(
                f"invalid store key {key!r} for {self.locator}: keys are non-empty, "
                "do not start with '.' and hold no '/', '\\' or NUL"
            )
        return key

    # ------------------------------------------------------------------
    # Storage primitives
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _get(self, table: str, key: str) -> dict | None:
        """The record stored under ``key`` in ``table``, or ``None``."""

    @abc.abstractmethod
    def _put(self, table: str, key: str, record: dict) -> None:
        """Store ``record`` under ``key`` atomically (last write wins)."""

    @abc.abstractmethod
    def _put_if_absent(self, table: str, key: str, record: dict) -> bool:
        """Store ``record`` unless ``key`` exists; ``True`` when this call won."""

    @abc.abstractmethod
    def _delete(self, table: str, key: str) -> None:
        """Remove ``key`` from ``table`` (no-op when absent)."""

    @abc.abstractmethod
    def _keys(self, table: str) -> list[str]:
        """All keys of ``table``, ascending."""

    @abc.abstractmethod
    def _items(self, table: str, keys: "list[str] | None" = None) -> Iterator[tuple[str, dict]]:
        """``(key, record)`` for every record of ``table`` (ascending keys),
        or for each of ``keys`` that is stored; absent keys are skipped."""

    @abc.abstractmethod
    def _stat(self, table: str) -> tuple[int, int]:
        """``(records, stored bytes)`` of ``table``, without decoding any."""

    # ------------------------------------------------------------------
    # Claim primitives
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def try_claim(self, key: str, owner: str, *, ttl: float = DEFAULT_CLAIM_TTL) -> bool:
        """Atomically claim ``key`` for ``owner``; ``True`` on success.

        A claim older than ``ttl`` seconds counts as abandoned and is
        broken, so a worker that died mid-computation never wedges the
        queue (at-least-once semantics: the point may then be computed
        twice, which is safe because saves are idempotent).  Breaking a
        stale claim counts one lease break for ``key``.
        """

    @abc.abstractmethod
    def renew_claim(self, key: str, owner: str) -> None:
        """Refresh a held claim's timestamp (no-op when absent).

        Drain loops call this as each group member completes, so a
        lease only goes stale when its holder stops making progress for
        a whole TTL — not merely because the group is large.
        """

    @abc.abstractmethod
    def release_claim(self, key: str) -> None:
        """Release a claim (no-op when absent)."""

    @abc.abstractmethod
    def claim_info(self) -> dict[str, dict]:
        """``{key: {"owner": str, "age": seconds}}`` for every live claim.

        ``age`` counts from the last grant *or renewal*, i.e. it is the
        time the lease has gone without progress — the quantity the TTL
        staleness check and ``store stats`` both care about.
        """

    @abc.abstractmethod
    def claim_age(self, key: str) -> float | None:
        """Age of one key's claim in seconds, or ``None`` when unclaimed."""

    def list_claims(self) -> list[str]:
        """Keys currently under claim, ascending."""
        return sorted(self.claim_info())

    # ------------------------------------------------------------------
    # Point artifacts
    # ------------------------------------------------------------------
    def load_point(self, key: str) -> Any | None:
        """The stored result payload for ``key``, or ``None`` if absent."""
        record = self.load_point_record(key)
        if _met.ENABLED:
            _met.REGISTRY.inc("store.point.hit" if record is not None else "store.point.miss")
        return None if record is None else self._result(key, record)

    def save_point(self, key: str, result: Any, *, context: dict | None = None) -> None:
        """Persist one point result (with provenance context) atomically.

        Saves are idempotent: the key is a content hash of the
        computation, so concurrent workers racing the same point write
        identical payloads and last-write-wins is safe.
        """
        self.save_point_record(
            key, {"schema": _SCHEMA_VERSION, "context": context or {}, "result": result}
        )
        if _met.ENABLED:
            _met.REGISTRY.inc("store.point.write")

    def load_points(self, keys: "list[str]") -> dict[str, Any]:
        """``{key: result}`` for every stored key in ``keys``.

        Absent keys are omitted.  The batched cache probe of the claim
        stage and the worker drain loop.
        """
        if not keys:
            return {}
        items = self._items("points", [self._key(key) for key in keys])
        out = {key: self._result(key, record) for key, record in items}
        if _met.ENABLED:
            _met.REGISTRY.inc("store.point.hit", len(out))
            _met.REGISTRY.inc("store.point.miss", len(keys) - len(out))
        return out

    def _result(self, key: str, record: dict) -> Any:
        try:
            return record["result"]
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"corrupt results artifact {self.point_locator(key)}: {exc}"
            ) from exc

    def point_locator(self, key: str) -> str:
        """Human-readable location of one point artifact (error messages)."""
        return f"{self.locator}::points/{key}"

    def load_point_record(self, key: str) -> dict | None:
        """The full stored record for ``key`` (schema/context/result)."""
        return self._get("points", self._key(key))

    def save_point_record(self, key: str, record: dict) -> None:
        """Persist one full point record atomically."""
        self._put("points", self._key(key), record)

    def list_points(self) -> list[str]:
        """All stored point keys, ascending."""
        return self._keys("points")

    def iter_point_records(self) -> Iterator[tuple[str, dict]]:
        """Yield ``(key, record)`` for every stored point, ascending.

        The monitor and ``store export`` walk this for point-level
        contexts (sweep value, run, worker, save time).
        """
        yield from self._items("points")

    # ------------------------------------------------------------------
    # Sweep manifests
    # ------------------------------------------------------------------
    def save_manifest(self, sweep_key: str, manifest: dict) -> None:
        """Persist a sweep's run manifest."""
        self._put("manifests", self._key(sweep_key), manifest)

    def load_manifest(self, sweep_key: str) -> dict | None:
        """The manifest for ``sweep_key``, or ``None`` if absent."""
        return self._get("manifests", self._key(sweep_key))

    def list_manifests(self) -> list[str]:
        """All stored sweep keys, ascending."""
        return self._keys("manifests")

    # ------------------------------------------------------------------
    # Assembled series
    # ------------------------------------------------------------------
    def save_series(self, series: "ExperimentSeries") -> None:
        """Persist an assembled series under its experiment id."""
        self.save_series_dict(series.experiment, series.to_dict())

    def load_series(self, experiment_id: str) -> "ExperimentSeries":
        """Load a previously assembled series by experiment id."""
        from repro.analysis.series import ExperimentSeries

        data = self.load_series_dict(experiment_id)
        if data is None:
            known = self.list_series()
            raise ConfigurationError(
                f"no stored series {experiment_id!r} under {self.locator} "
                f"(stored: {', '.join(known) or '<none>'})"
            )
        return ExperimentSeries.from_dict(data)

    def save_series_dict(self, experiment_id: str, data: dict) -> None:
        """Persist one assembled series as a plain dict."""
        self._put("series", self._key(experiment_id), data)

    def load_series_dict(self, experiment_id: str) -> dict | None:
        """The stored series dict for ``experiment_id``, or ``None``."""
        return self._get("series", self._key(experiment_id))

    def list_series(self) -> list[str]:
        """Experiment ids with an assembled series, ascending."""
        return self._keys("series")

    # ------------------------------------------------------------------
    # Worker queue
    # ------------------------------------------------------------------
    def save_task(self, key: str, payload: dict) -> None:
        """Publish one pending task descriptor under ``key``."""
        self._put("tasks", self._key(key), payload)

    def load_task(self, key: str) -> dict | None:
        """The pending task descriptor for ``key``, or ``None``."""
        return self._get("tasks", self._key(key))

    def delete_task(self, key: str) -> None:
        """Remove a task descriptor (no-op when already gone)."""
        self._delete("tasks", self._key(key))

    def pending_task_keys(self) -> list[str]:
        """Keys of all published task descriptors, ascending."""
        return self._keys("tasks")

    # ------------------------------------------------------------------
    # Lease churn + quarantine
    # ------------------------------------------------------------------
    # A lease "break" is try_claim evicting a stale claim: the previous
    # holder stopped renewing for a whole TTL, i.e. it most likely died
    # mid-computation.  Tasks whose leases break repeatedly are poison
    # (they kill whoever claims them) and get parked in the quarantine
    # table instead of being re-claimed forever.

    def record_lease_break(self, key: str) -> int:
        """Count one broken lease for ``key``; returns the new total.

        Read-modify-write, hence advisory under concurrent breakers; the
        claim primitives call it only from the breaker that won.
        """
        breaks = self.lease_breaks(key) + 1
        self._put("churn", key, {"breaks": breaks})
        obs.event("queue.lease_break", cat="queue", key=key, breaks=breaks)
        return breaks

    def lease_breaks(self, key: str) -> int:
        """How many times ``key``'s lease has been broken (0 if never)."""
        record = self._get("churn", self._key(key))
        return int(record.get("breaks", 0)) if record else 0

    def lease_break_counts(self) -> dict[str, int]:
        """``{key: breaks}`` for every key with at least one break."""
        counts = {key: int(record.get("breaks", 0)) for key, record in self._items("churn")}
        return {key: breaks for key, breaks in counts.items() if breaks > 0}

    def reset_lease_breaks(self, key: str) -> None:
        """Forget ``key``'s break counter (requeue gives a clean slate)."""
        self._delete("churn", self._key(key))

    def quarantine_task(self, key: str, *, reason: str = "") -> bool:
        """Park ``key``'s pending descriptor in the quarantine table.

        Moves the task out of the queue (drain loops no longer see it),
        releases any claim, and records why.  Returns ``True`` when the
        key is quarantined after the call — including when a peer parked
        it first — and ``False`` when there is nothing to park.
        """
        if self.load_quarantined(key) is not None:
            self.delete_task(key)  # a peer parked it mid-scan
            return True
        payload = self.load_task(key)
        if payload is None:
            return False
        self.save_quarantined(
            key,
            {
                "schema": _SCHEMA_VERSION,
                "payload": payload,
                "reason": reason,
                "lease_breaks": self.lease_breaks(key),
                "quarantined_at": time.time(),
            },
        )
        self.delete_task(key)
        self.release_claim(key)
        return True

    def requeue_quarantined(self, key: str) -> bool:
        """Release a quarantined descriptor back into the task queue.

        Restores the descriptor, clears the quarantine record and the
        break counter (the operator decided it deserves a clean slate).
        Returns ``False`` when ``key`` is not quarantined.
        """
        record = self.load_quarantined(key)
        if record is None:
            return False
        payload = record.get("payload")
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"quarantine record {key!r} in {self.locator} has no task payload"
            )
        self.save_task(key, payload)
        self.delete_quarantined(key)
        self.reset_lease_breaks(key)
        self.release_claim(key)
        return True

    def save_quarantined(self, key: str, record: dict) -> None:
        """Persist one quarantine record."""
        self._put("quarantine", self._key(key), record)

    def load_quarantined(self, key: str) -> dict | None:
        """The quarantine record for ``key``, or ``None``."""
        return self._get("quarantine", self._key(key))

    def delete_quarantined(self, key: str) -> None:
        """Remove a quarantine record (no-op when already gone)."""
        self._delete("quarantine", self._key(key))

    def list_quarantined(self) -> list[str]:
        """Keys currently quarantined, ascending."""
        return self._keys("quarantine")

    # ------------------------------------------------------------------
    # Checkpoint table (timeline delta-chain links)
    # ------------------------------------------------------------------
    def put_checkpoint(self, key: str, payload: dict) -> bool:
        """Store one checkpoint chain link if absent; ``True`` if created.

        Keys are stage content keys (they commit to the whole event
        prefix plus the strategy lineup), so concurrent workers racing
        the same boundary write byte-identical payloads — the
        conditional put is a write-amplification saver, not a
        correctness requirement.
        """
        created = self.save_checkpoint_record(key, payload)
        if _met.ENABLED:
            _met.REGISTRY.inc("store.ckpt.write" if created else "store.ckpt.dup")
        return created

    def get_checkpoint(self, key: str) -> dict | None:
        """The chain link stored under ``key``, or ``None`` if absent."""
        record = self.load_checkpoint_record(key)
        if _met.ENABLED:
            _met.REGISTRY.inc("store.ckpt.hit" if record is not None else "store.ckpt.miss")
        return record

    def save_checkpoint_record(self, key: str, payload: dict) -> bool:
        """Persist one chain link if absent; ``True`` when this call won."""
        return self._put_if_absent("checkpoints", self._key(key), payload)

    def load_checkpoint_record(self, key: str) -> dict | None:
        """The stored chain link for ``key``, or ``None``."""
        return self._get("checkpoints", self._key(key))

    def list_checkpoints(self) -> list[str]:
        """All stored checkpoint keys, ascending."""
        return self._keys("checkpoints")

    def delete_checkpoint(self, key: str) -> None:
        """Remove one chain link (no-op when already gone)."""
        self._delete("checkpoints", self._key(key))

    def checkpoint_stats(self) -> dict:
        """``{count, bytes}`` of the table (live state, no payload reads)."""
        count, size = self._stat("checkpoints")
        return {"count": count, "bytes": size}

    def gc_checkpoints(self) -> dict:
        """Prune chain links no live sweep manifest references.

        Every link written through an executor is stamped with the point
        keys of the group that cut it; a link is *live* while any of
        those points appears in some stored manifest's ``points`` list.
        Unstamped links (ad-hoc ``compute_group`` calls) and links whose
        sweeps were migrated away are removed — pruning only costs a
        future fleet the replay the link would have saved, never
        correctness.  Returns ``{"kept": n, "removed": n}``.
        """
        live: set[str] = set()
        for _, manifest in self._items("manifests"):
            live.update(manifest.get("points", ()))
        kept = removed = 0
        for key, record in self._items("checkpoints"):
            if any(point in live for point in record.get("points") or ()):
                kept += 1
            else:
                self._delete("checkpoints", key)
                removed += 1
        return {"kept": kept, "removed": removed}

    # ------------------------------------------------------------------
    # Worker heartbeats
    # ------------------------------------------------------------------
    def record_heartbeat(self, worker: str) -> None:
        """Stamp ``worker``'s liveness (wall-clock time + pid).

        Workers beat every fraction of the lease TTL (see
        :mod:`repro.sim.executor`); the monitor flags a worker whose
        last beat is older than the TTL as stale instead of showing it
        as silently live.  Latest-wins per worker name.
        """
        self.save_heartbeat_record(worker, {"at": time.time(), "pid": os.getpid()})

    def heartbeats(self) -> dict[str, float]:
        """``{worker: last heartbeat epoch seconds}`` for every worker."""
        return {
            worker: float(record.get("at", 0.0))
            for worker, record in self.heartbeat_records().items()
        }

    def save_heartbeat_record(self, worker: str, record: dict) -> None:
        """Persist one worker's latest heartbeat record."""
        self._put("heartbeats", self._key(worker), record)

    def heartbeat_records(self) -> dict[str, dict]:
        """All stored heartbeat records keyed by worker name."""
        return dict(self._items("heartbeats"))

    # ------------------------------------------------------------------
    # Introspection / migration
    # ------------------------------------------------------------------
    def queue_stats(
        self,
        *,
        claim_info: dict[str, dict] | None = None,
        quarantined: "list[str] | None" = None,
    ) -> dict:
        """Cheap aggregate counts for ``store stats`` / ``store watch``.

        Everything here is a count or an age — no point payloads are
        read, so polling this in a watch loop stays cheap even on
        10⁴+-point stores.  A caller that already fetched the claim
        table or the quarantine listing for its own display (the
        monitor does both) passes them in, so one snapshot never pays
        the backend twice for the same scan.
        """
        info = self.claim_info() if claim_info is None else claim_info
        return {
            "backend": self.kind,
            "locator": self.locator,
            "points": self._stat("points")[0],
            "manifests": self._stat("manifests")[0],
            "series": self._stat("series")[0],
            "tasks": self._stat("tasks")[0],
            "claims": len(info),
            "oldest_claim_age": max((c["age"] for c in info.values()), default=0.0),
            "quarantined": self._stat("quarantine")[0] if quarantined is None else len(quarantined),
            "lease_breaks": sum(self.lease_break_counts().values()),
            "checkpoints": self.checkpoint_stats(),
        }

    def describe(self) -> dict:
        """Artifact counts for ``minim-cdma store ls``."""
        return {
            "backend": self.kind,
            "locator": self.locator,
            "points": self._stat("points")[0],
            "manifests": self._stat("manifests")[0],
            "series": self.list_series(),
            "tasks": self._stat("tasks")[0],
            "claims": len(self.claim_info()),
            "quarantined": self._stat("quarantine")[0],
            "checkpoints": self._stat("checkpoints")[0],
        }


def migrate_store(src: ResultsBackend, dst: ResultsBackend) -> dict:
    """Copy the durable tables — points, manifests, series, checkpoints.

    Records travel through the storage primitives; checkpoint links
    are put if absent, the rest overwrite.  Queue state (tasks, claims,
    churn, quarantine, heartbeats) stays behind.  Checkpoint links
    travel with the manifests that reference them, so a migrated fleet
    keeps its shared prefixes.  Returns
    ``{"points": n, "manifests": n, "series": n, "checkpoints": n}``.
    """
    counts = {}
    for table in _DURABLE_TABLES:
        put = dst._put_if_absent if table == "checkpoints" else dst._put
        counts[table] = 0
        for key, record in src._items(table):
            put(table, key, record)
            counts[table] += 1
    return counts


class CheckpointScope:
    """A backend's checkpoint table scoped to one task group.

    The handle :func:`repro.sim.timeline.compute_group` writes chain
    links through.  Every link is stamped with the point keys of the
    group that cut it, which is what ties a content-keyed link back to
    sweep manifests: :meth:`ResultsBackend.gc_checkpoints` keeps a link
    while any stamped point appears in a live manifest's ``points``
    list.  Reads pass through unstamped (links are shared across
    groups and sweeps by content key).
    """

    def __init__(self, backend: ResultsBackend, points: Sequence[str] = ()) -> None:
        self.backend = backend
        self.points = list(points)

    def put_checkpoint(self, key: str, payload: dict) -> bool:
        """Write one link through, stamped with this group's points."""
        if self.points:
            payload = {**payload, "points": self.points}
        return self.backend.put_checkpoint(key, payload)

    def get_checkpoint(self, key: str) -> dict | None:
        """Read one link (pass-through)."""
        return self.backend.get_checkpoint(key)


class JsonDirBackend(ResultsBackend):
    """Filesystem-backed results: one JSON file per record.

    Layout under ``root``: ``<table>/<key>.json`` for every table —
    ``points/``, ``series/``, ``tasks/``, ``churn/``, ``quarantine/``,
    ``heartbeats/``, ``checkpoints/`` — except that manifests live in
    ``sweeps/``; claims are ``claims/<key>.lease`` files.  Records are
    written as ``indent=2, sort_keys`` JSON plus a newline through
    write-then-rename, so concurrent readers (and workers on a shared
    filesystem) never observe partial files.

    Parameters
    ----------
    root:
        Store directory; created on first write.
    """

    kind = "json"

    #: Tables whose directory is not named after the table.
    _DIRS = {"manifests": "sweeps"}

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    @property
    def locator(self) -> str:
        """The store directory (re-opens via :func:`open_backend`)."""
        return str(self.root)

    def _path(self, table: str, key: str | None = None) -> Path:
        """The file of ``key`` in ``table`` (the table's directory for ``None``)."""
        folder = self.root / self._DIRS.get(table, table)
        if key is None:
            return folder
        return folder / f"{key}{'.lease' if table == 'claims' else '.json'}"

    def point_locator(self, key: str) -> str:
        """The point artifact's filesystem path."""
        return str(self._path("points", key))

    # ------------------------------------------------------------------
    # Storage primitives
    # ------------------------------------------------------------------
    def _get(self, table: str, key: str) -> dict | None:
        path = self._path(table, key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"corrupt {table} record {path}: {exc}") from exc

    def _put(self, table: str, key: str, record: dict) -> None:
        _write_json(self._path(table, key), record)

    def _put_if_absent(self, table: str, key: str, record: dict) -> bool:
        """Atomic tmp-file + ``os.link`` publish.

        ``link(2)`` fails with ``EEXIST`` when the target exists, which
        makes create-if-absent atomic even on shared filesystems — and
        readers never observe a partial file, because the payload is
        fully written before the name appears.
        """
        path = self._path(table, key)
        if path.exists():
            return False
        tmp = _write_json(path.with_name(f".{key}.{os.getpid()}.tmp"), record)
        try:
            os.link(tmp, path)
            return True
        except FileExistsError:
            return False
        finally:
            tmp.unlink(missing_ok=True)

    def _delete(self, table: str, key: str) -> None:
        self._path(table, key).unlink(missing_ok=True)

    def _keys(self, table: str) -> list[str]:
        return sorted(p.stem for p in self._path(table).glob("*.json"))

    def _items(self, table: str, keys: "list[str] | None" = None) -> Iterator[tuple[str, dict]]:
        for key in self._keys(table) if keys is None else keys:
            record = self._get(table, key)
            if record is not None:
                yield key, record

    def _stat(self, table: str) -> tuple[int, int]:
        count = size = 0
        for path in self._path(table).glob("*.json"):
            try:
                size += path.stat().st_size
            except FileNotFoundError:  # deleted mid-scan
                continue
            count += 1
        return count, size

    # ------------------------------------------------------------------
    # Claim primitives: O_EXCL lease files
    # ------------------------------------------------------------------
    def try_claim(self, key: str, owner: str, *, ttl: float = DEFAULT_CLAIM_TTL) -> bool:
        """Claim via ``O_CREAT|O_EXCL`` lease file; breaks stale leases.

        Creation itself is atomic; only *stale-lease breaking* races.
        After creating a lease the owner is read back and verified,
        which catches a concurrent breaker unlinking our fresh file —
        but two breakers interleaved across the whole break/create
        window can still each see their own name and both win.  Claims
        are therefore a work-dedup lever, not a mutual-exclusion
        guarantee: duplicates stay possible (at-least-once) and stay
        safe, because point saves are idempotent and content-keyed.
        Callers needing hard exclusivity must not build it on leases.
        """
        path = self._path("claims", self._key(key))
        path.parent.mkdir(parents=True, exist_ok=True)
        broke_stale = False
        for attempt in range(2):
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                if attempt:
                    return False
                try:
                    stale = (time.time() - path.stat().st_mtime) > ttl
                except FileNotFoundError:
                    continue  # holder released between open and stat; retry
                if not stale:
                    return False
                path.unlink(missing_ok=True)  # break the abandoned lease
                broke_stale = True
                continue
            with os.fdopen(fd, "w") as fh:
                json.dump({"owner": owner, "claimed_at": time.time()}, fh)
            won = self._claim_owner(path) == owner
            if won and broke_stale:
                # counted only by the breaker that went on to *win* the
                # claim: racing breakers may both unlink, but one real
                # eviction must not count as two (the counter feeds the
                # quarantine threshold)
                self.record_lease_break(key)
            return won
        return False  # pragma: no cover - loop always returns

    def _claim_owner(self, path: Path) -> str | None:
        try:
            return json.loads(path.read_text()).get("owner")
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def renew_claim(self, key: str, owner: str) -> None:
        """Bump the lease mtime while still held by ``owner``."""
        path = self._path("claims", self._key(key))
        if self._claim_owner(path) == owner:
            try:
                os.utime(path)
            except FileNotFoundError:  # released concurrently: nothing to renew
                pass

    def release_claim(self, key: str) -> None:
        """Remove the lease file (idempotent)."""
        self._path("claims", self._key(key)).unlink(missing_ok=True)

    def claim_info(self) -> dict[str, dict]:
        """Owner (from the lease body) and age (from the lease mtime).

        The mtime is what ``renew_claim`` bumps, so age measures time
        since the holder last made progress.
        """
        now = time.time()
        out: dict[str, dict] = {}
        for path in sorted(self._path("claims").glob("*.lease")):
            try:
                mtime = path.stat().st_mtime
            except FileNotFoundError:  # released mid-scan
                continue
            out[path.stem] = {
                "owner": self._claim_owner(path) or "<unknown>",
                "age": max(0.0, now - mtime),
            }
        return out

    def claim_age(self, key: str) -> float | None:
        """One stat call on the lease file (no table scan)."""
        try:
            mtime = self._path("claims", self._key(key)).stat().st_mtime
        except FileNotFoundError:
            return None
        return max(0.0, time.time() - mtime)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> "SqliteBackend":
        """Fold this directory store into ``<root>/store.sqlite``, in place.

        Prunes unreferenced checkpoint links, migrates the durable
        tables (see :func:`migrate_store`) and removes every table
        directory.  Because :func:`open_backend` routes a directory
        containing ``store.sqlite`` to :class:`SqliteBackend`, existing
        ``--results <root>`` invocations keep resolving (and resuming)
        transparently after compaction.  Queue state is dropped, as in a
        migration.
        """
        import shutil

        dst = SqliteBackend(self.root / _SQLITE_BASENAME)
        self.gc_checkpoints()  # only links a live manifest references travel
        migrate_store(self, dst)
        # older stores also carry a ``meta/`` counter directory
        for table in (*_TABLES, "claims", "meta"):
            shutil.rmtree(self._path(table), ignore_errors=True)
        return dst


def _write_json(path: Path, payload: Any) -> Path:
    """Write-then-rename so readers never observe partial files."""
    from repro.analysis.series import write_json_atomic

    return write_json_atomic(path, payload)


class SqliteBackend(ResultsBackend):
    """Single-file SQLite results store (stdlib ``sqlite3`` only).

    Every table is one ``kind`` of a single ``artifacts(kind, key,
    payload)`` table, the payload being the record as
    ``json.dumps(record, sort_keys=True)``; claims are rows of a second
    ``claims(key, owner, claimed_at)`` table.  Intended for 10⁴+-point
    sweeps where a directory of tiny JSON files stops scaling, and as
    the shared store of multi-process worker drains (SQLite's file
    locking serializes writers; every operation is one short
    transaction on its own connection, so backends are trivially
    picklable across process pools).  Reads never create the database
    file: on a store that does not exist yet they return empty.

    Parameters
    ----------
    path:
        The database file.  A directory is accepted and resolves to
        ``<dir>/store.sqlite`` (the compaction layout).
    """

    kind = "sqlite"

    def __init__(self, path: Path | str) -> None:
        path = Path(path)
        if path.is_dir() or (not path.exists() and not path.suffix):
            path = path / _SQLITE_BASENAME
        self.path = path
        self._schema_ready = False

    @property
    def locator(self) -> str:
        """The database file path (re-opens via :func:`open_backend`)."""
        return str(self.path)

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """One short transaction on a fresh connection (always closed).

        A connection per operation keeps the backend free of open
        handles, hence picklable and safe to share across process pools
        and forked workers; SQLite's file locking (with a 30 s busy
        timeout) serializes concurrent writers.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=30.0)
        try:
            if not self._schema_ready:
                # once per backend instance, not per operation: the
                # tables persist in the file, and hot paths (cache
                # probes, drain polls) open thousands of connections
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS artifacts ("
                    " kind TEXT NOT NULL, key TEXT NOT NULL, payload TEXT NOT NULL,"
                    " PRIMARY KEY (kind, key))"
                )
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS claims ("
                    " key TEXT PRIMARY KEY, owner TEXT NOT NULL, claimed_at REAL NOT NULL)"
                )
                self._schema_ready = True
            with conn:  # commit on success, roll back on error
                yield conn
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # Storage primitives
    # ------------------------------------------------------------------
    def _decode(self, table: str, key: str, payload: str) -> dict:
        try:
            return json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"corrupt {table} row {key!r} in {self.path}: {exc}") from exc

    def _get(self, table: str, key: str) -> dict | None:
        if not self.path.exists():
            return None
        with self._connect() as conn:
            row = conn.execute(
                "SELECT payload FROM artifacts WHERE kind = ? AND key = ?", (table, key)
            ).fetchone()
        return None if row is None else self._decode(table, key, row[0])

    def _put(self, table: str, key: str, record: dict) -> None:
        with self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO artifacts (kind, key, payload) VALUES (?, ?, ?)",
                (table, key, json.dumps(record, sort_keys=True)),
            )

    def _put_if_absent(self, table: str, key: str, record: dict) -> bool:
        with self._connect() as conn:
            cur = conn.execute(
                "INSERT OR IGNORE INTO artifacts (kind, key, payload) VALUES (?, ?, ?)",
                (table, key, json.dumps(record, sort_keys=True)),
            )
            return cur.rowcount > 0

    def _delete(self, table: str, key: str) -> None:
        if not self.path.exists():
            return
        with self._connect() as conn:
            conn.execute("DELETE FROM artifacts WHERE kind = ? AND key = ?", (table, key))

    def _keys(self, table: str) -> list[str]:
        if not self.path.exists():
            return []
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT key FROM artifacts WHERE kind = ? ORDER BY key", (table,)
            ).fetchall()
        return [r[0] for r in rows]

    def _items(self, table: str, keys: "list[str] | None" = None) -> Iterator[tuple[str, dict]]:
        """One query for a whole table; one ``IN`` query per 500 keys."""
        if not self.path.exists():
            return
        select = "SELECT key, payload FROM artifacts WHERE kind = ?"
        with self._connect() as conn:
            if keys is None:
                rows = conn.execute(f"{select} ORDER BY key", (table,)).fetchall()
            else:
                rows = []
                for start in range(0, len(keys), 500):
                    chunk = keys[start : start + 500]
                    marks = ",".join("?" * len(chunk))  # placeholders only
                    rows += conn.execute(f"{select} AND key IN ({marks})", (table, *chunk))
        for key, payload in rows:
            yield key, self._decode(table, key, payload)

    def _stat(self, table: str) -> tuple[int, int]:
        if not self.path.exists():
            return 0, 0
        with self._connect() as conn:
            count, size = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) "
                "FROM artifacts WHERE kind = ?",
                (table,),
            ).fetchone()
        return int(count), int(size)

    # ------------------------------------------------------------------
    # Claim primitives: INSERT OR IGNORE rows
    # ------------------------------------------------------------------
    def try_claim(self, key: str, owner: str, *, ttl: float = DEFAULT_CLAIM_TTL) -> bool:
        """Claim via ``INSERT OR IGNORE``; stale rows are purged first.

        Purging a stale row counts one lease break in the same
        transaction, so exactly the claimant that evicted the dead
        holder does the churn accounting.
        """
        self._key(key)
        now = time.time()
        with self._connect() as conn:
            cur = conn.execute(
                "DELETE FROM claims WHERE key = ? AND claimed_at < ?", (key, now - ttl)
            )
            if cur.rowcount > 0:
                self._bump_churn(conn, key)
            cur = conn.execute(
                "INSERT OR IGNORE INTO claims (key, owner, claimed_at) VALUES (?, ?, ?)",
                (key, owner, now),
            )
            return cur.rowcount == 1

    def _bump_churn(self, conn: sqlite3.Connection, key: str) -> int:
        """Increment the churn row inside the caller's transaction."""
        row = conn.execute(
            "SELECT payload FROM artifacts WHERE kind = 'churn' AND key = ?", (key,)
        ).fetchone()
        breaks = (int(json.loads(row[0]).get("breaks", 0)) if row else 0) + 1
        conn.execute(
            "INSERT OR REPLACE INTO artifacts (kind, key, payload) VALUES ('churn', ?, ?)",
            (key, json.dumps({"breaks": breaks})),
        )
        obs.event("queue.lease_break", cat="queue", key=key, breaks=breaks)
        return breaks

    def renew_claim(self, key: str, owner: str) -> None:
        """Bump the claim row's timestamp while still held by ``owner``."""
        self._key(key)
        if not self.path.exists():
            return
        with self._connect() as conn:
            conn.execute(
                "UPDATE claims SET claimed_at = ? WHERE key = ? AND owner = ?",
                (time.time(), key, owner),
            )

    def release_claim(self, key: str) -> None:
        """Delete the claim row (idempotent)."""
        self._key(key)
        if not self.path.exists():
            return
        with self._connect() as conn:
            conn.execute("DELETE FROM claims WHERE key = ?", (key,))

    def claim_info(self) -> dict[str, dict]:
        """Owner and age straight from the claim rows."""
        if not self.path.exists():
            return {}
        now = time.time()
        with self._connect() as conn:
            rows = conn.execute("SELECT key, owner, claimed_at FROM claims ORDER BY key").fetchall()
        return {key: {"owner": owner, "age": max(0.0, now - at)} for key, owner, at in rows}

    def claim_age(self, key: str) -> float | None:
        """One indexed row read (no table scan)."""
        self._key(key)
        if not self.path.exists():
            return None
        with self._connect() as conn:
            row = conn.execute("SELECT claimed_at FROM claims WHERE key = ?", (key,)).fetchone()
        return None if row is None else max(0.0, time.time() - row[0])

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def compact(self) -> "SqliteBackend":
        """Reclaim free pages (``VACUUM``); returns self for chaining."""
        with self._connect() as conn:
            conn.execute("VACUUM")
        return self


def open_backend(path: Path | str, kind: str = "auto") -> ResultsBackend:
    """Resolve a path (or backend locator) to a results backend.

    ``kind`` forces ``"json"`` or ``"sqlite"``; the default ``"auto"``
    sniffs: an existing file, a ``.sqlite``/``.sqlite3``/``.db`` suffix,
    or a directory containing ``store.sqlite`` (the compaction layout)
    selects :class:`SqliteBackend`, anything else the JSON directory
    backend.  Workers use this to re-open the orchestrator's store from
    its locator string alone.
    """
    path = Path(path)
    if kind == "json":
        return JsonDirBackend(path)
    if kind == "sqlite":
        return SqliteBackend(path)
    if kind != "auto":
        raise ConfigurationError(
            f"unknown results-backend kind {kind!r} (expected auto/json/sqlite)"
        )
    if path.is_file():
        return SqliteBackend(path)
    if path.suffix in _SQLITE_SUFFIXES:
        return SqliteBackend(path)
    if (path / _SQLITE_BASENAME).exists():
        return SqliteBackend(path / _SQLITE_BASENAME)
    return JsonDirBackend(path)
