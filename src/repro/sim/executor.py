"""The sweep execution layer: pluggable executors over task groups.

:func:`repro.sim.sweep.run_sweep` splits a sweep into four stages —
**plan** (resolve every (point, run) into a content-addressed
:class:`TaskGroup`), **claim** (serve cached points from the results
backend), **execute** (this module), **collect** (assemble the series).
The execute stage is pluggable behind the :class:`Executor` protocol:

* :class:`SerialExecutor` — in-process loop (the default);
* :class:`ProcessExecutor` — fan-out across a local process pool via
  :func:`repro.sim.runner.parallel_map`;
* :class:`WorkerExecutor` — publish task descriptors into the shared
  results backend and let any number of ``minim-cdma worker`` processes
  (or hosts sharing the store over a filesystem) claim and drain them,
  with lease-based at-least-once semantics.  The orchestrator drains
  the queue itself too, so a sweep completes even with zero external
  workers.

Every executor and worker computes a group through one save path,
:func:`_compute_and_save`, and both queue drains claim a group through
one claim step, :func:`_claim_step`, so a sweep produces an identical
:class:`~repro.analysis.series.ExperimentSeries` for the same
spec + seed regardless of executor (pinned by
``tests/sim/test_executor.py``).  Only the pool target and the worker
queue go through the JSON task descriptor (:func:`group_payload`).

A :class:`TaskGroup` usually holds one (point, run).  Groups whose
members share a simulation prefix (paired sweeps over axes that leave
the placement draw untouched) hold one run seed's whole point row, and
execution walks the **checkpoint tree** of :mod:`repro.sim.timeline`:
each member's trace is segmented into content-keyed stages (placement
draw → join trace → per-round perturbations), stage boundaries
traversed by more than one member are checkpointed, and every member
forks from the deepest checkpoint on its own chain — byte-equivalent to
a cold rebuild (``tests/sim/test_timeline.py``) and measurably faster
(``benchmarks/mechanism_evidence.py``).
"""

from __future__ import annotations

import hashlib
import os
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.sim.results import (
    DEFAULT_CLAIM_TTL,
    CheckpointScope,
    ResultsBackend,
    open_backend,
)
from repro.sim.runner import parallel_map
from repro.sim.scenarios import ScenarioSpec, scenario_from_dict
from repro.sim.timeline import compute_group as _compute_group_timeline
from repro.sim.timeline import prefix_token

__all__ = [
    "DEFAULT_QUARANTINE_AFTER",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "TaskGroup",
    "WorkerExecutor",
    "compute_group",
    "group_from_payload",
    "group_payload",
    "resolve_executor",
    "run_worker",
]

_PAYLOAD_SCHEMA = 1

#: Default lease-break threshold after which a task group is parked in
#: the store's quarantine table instead of being re-claimed (0 disables).
#: A broken lease means a claimant died mid-computation, so repeated
#: breaks mark a poison task.
DEFAULT_QUARANTINE_AFTER = 3

#: Seconds between the orchestrator's queue scans while it waits on
#: external workers.
_ORCHESTRATOR_POLL = 0.1


# ----------------------------------------------------------------------
# Work units
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskGroup:
    """One executable unit of a sweep: one or more points on one seed.

    ``indices[m]`` is the ``(point index, run index)`` of member ``m``,
    ``points[m]`` its fully resolved spec and ``keys[m]`` its
    content-addressed artifact key.  All members share ``seed`` (a
    group either holds a single (point, run) or one run seed's whole
    shared-prefix point row).  ``stage_tokens[m]`` is member ``m``'s
    plan-time placement-prefix token
    (:func:`repro.sim.timeline.prefix_token`) — equal tokens are why
    the members were grouped, and the tokens travel in worker
    descriptors so any drain can see the intended sharing.  A group of
    more than one member is :attr:`warm`: execution walks the checkpoint
    tree of :mod:`repro.sim.timeline`, resuming each member from the
    deepest stage checkpoint its content-key chain hits.
    """

    indices: tuple[tuple[int, int], ...]
    points: tuple[ScenarioSpec, ...]
    seed: np.random.SeedSequence
    keys: tuple[str, ...]
    contexts: tuple[dict, ...]
    stage_tokens: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not (len(self.indices) == len(self.points) == len(self.keys) == len(self.contexts)):
            raise ConfigurationError("TaskGroup member tuples must be parallel")
        if self.stage_tokens and len(self.stage_tokens) != len(self.indices):
            raise ConfigurationError("TaskGroup stage_tokens must parallel the members")
        if not self.indices:
            raise ConfigurationError("TaskGroup needs at least one member")

    def subset(self, members: Sequence[int]) -> "TaskGroup":
        """The group restricted to the given member positions.

        The shrink primitive of the claim stage and incremental planning:
        all parallel member tuples shrink together and the shared seed
        survives, so whatever members remain still share their prefix.
        """
        from dataclasses import replace

        tokens = tuple(self.stage_tokens[m] for m in members) if self.stage_tokens else ()
        return replace(
            self,
            indices=tuple(self.indices[m] for m in members),
            points=tuple(self.points[m] for m in members),
            keys=tuple(self.keys[m] for m in members),
            contexts=tuple(self.contexts[m] for m in members),
            stage_tokens=tokens,
        )

    @property
    def warm(self) -> bool:
        """Whether the members share a checkpoint tree (more than one)."""
        return len(self.indices) > 1

    @property
    def key(self) -> str:
        """Content-addressed identity of the whole group.

        Singleton groups reuse their member's point key; larger groups
        hash the member keys, so the same pending work always maps to
        the same queue slot.
        """
        if len(self.keys) == 1:
            return self.keys[0]
        digest = hashlib.sha256("+".join(self.keys).encode()).hexdigest()[:20]
        return f"grp-{digest}"


def group_payload(group: TaskGroup) -> dict:
    """The JSON-able task descriptor of a group (worker-queue wire format).

    Self-contained: resolved point specs (``dataclasses.asdict`` trees)
    plus the seed's derivation identity (entropy + spawn key), so any
    worker process can recompute the group from the descriptor alone.
    """
    import dataclasses

    return {
        "schema": _PAYLOAD_SCHEMA,
        "indices": [list(ix) for ix in group.indices],
        "points": [dataclasses.asdict(p) for p in group.points],
        "seed": {"entropy": group.seed.entropy, "spawn_key": list(group.seed.spawn_key)},
        "keys": list(group.keys),
        "contexts": list(group.contexts),
        "stage_tokens": list(group.stage_tokens),
    }


def group_from_payload(payload: dict) -> TaskGroup:
    """Rebuild a :class:`TaskGroup` from :func:`group_payload` output.

    Older descriptors also carry a ``warm`` flag; it is ignored, since
    warmth follows the member count.
    """
    schema = payload.get("schema")
    if schema != _PAYLOAD_SCHEMA:
        raise ConfigurationError(
            f"unsupported task-descriptor schema {schema!r} (this worker speaks "
            f"{_PAYLOAD_SCHEMA}; upgrade the older side)"
        )
    try:
        seed = np.random.SeedSequence(
            entropy=payload["seed"]["entropy"],
            spawn_key=tuple(payload["seed"]["spawn_key"]),
        )
        points = tuple(scenario_from_dict(p) for p in payload["points"])
        # older descriptors carry no tokens; recompute from the specs
        tokens = payload.get("stage_tokens") or (prefix_token(p, seed) for p in points)
        return TaskGroup(
            indices=tuple((int(i), int(r)) for i, r in payload["indices"]),
            points=points,
            seed=seed,
            keys=tuple(payload["keys"]),
            contexts=tuple(payload["contexts"]),
            stage_tokens=tuple(tokens),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed task descriptor: {exc}") from exc


# ----------------------------------------------------------------------
# Computation kernel (runs in orchestrators, pool processes and workers)
# ----------------------------------------------------------------------
def compute_group(group: TaskGroup, on_member=None, store=None) -> list[list]:
    """Compute every member of a group; returns results in member order.

    The execute-stage kernel every executor (and worker drain) runs:
    delegate to the timeline walker of :mod:`repro.sim.timeline`.  Warm
    groups share stage checkpoints along their members' content-key
    chains (placement/join prefix, and any perturbation rounds whose
    keys coincide); singletons replay cold.  Because stage keys are
    content-derived, a member whose trace diverges (a sweep axis that
    turned out to affect placement after all) shares nothing and
    recomputes from scratch — sharing can never change results, only
    skip redundant work.

    ``on_member(index, result)``, when given, fires after each member
    completes — the hook :func:`_compute_and_save` uses to persist
    points (and renew a lease) incrementally instead of once at the end.

    ``store`` (a :class:`~repro.sim.results.CheckpointScope`) makes the
    walk's checkpoint tree store-backed: stage boundaries are written
    through as delta-chain links and resume consults the table, so a
    boundary some *other* process or host already walked is applied
    instead of replayed.

    This is the single choke point every executor funnels through, so
    the per-task trace span lives here: one ``task.compute`` span per
    group, in whichever process ran it.
    """
    with obs.span(
        "task.compute", cat="executor", key=group.key, members=len(group.indices), warm=group.warm
    ):
        return _compute_group_timeline(group.points, group.seed, on_member=on_member, store=store)


def _compute_and_save(
    group: TaskGroup, backend: ResultsBackend | None, worker: str, *, lease: str | None = None
) -> list[list]:
    """Compute a group, saving each member with provenance as it lands.

    The one save path of every executor and worker.  A member's point is
    saved the moment it completes, stamped with *who* computed it
    (``worker``) and *when* it landed (``saved_at``) on top of its
    planned context, so every finished member of an interrupted group
    survives for resume, and the monitor and ``store export`` can read
    the provenance back.  With ``lease`` (the queue claim the caller
    holds on this group) the lease is renewed per landed member too, so
    a long group (a warm run row under a slow strategy) neither goes
    stale nor gets re-claimed by an idle peer mid-computation.  Without
    a backend nothing is saved.

    Warm groups write their stage boundaries through to the store's
    checkpoint table, stamped with the group's point keys so
    ``store ckpt PATH gc`` can tie each link back to live sweep
    manifests; singletons never serialize boundaries.
    """

    def landed(m: int, out: list) -> None:
        context = {**group.contexts[m], "worker": worker, "saved_at": time.time()}
        backend.save_point(group.keys[m], out, context=context)
        if lease is not None:
            backend.renew_claim(lease, worker)
            obs.event("queue.lease_renew", cat="queue", key=lease, owner=worker)

    if backend is None:
        outs = compute_group(group)
    else:
        scope = CheckpointScope(backend, points=group.keys) if group.warm else None
        outs = compute_group(group, on_member=landed, store=scope)
    # the snapshot survives a pool worker torn down without atexit, or
    # a claimant that dies next
    obs.flush_metrics()
    return outs


def _execute_group_task(args: tuple) -> list[list]:
    """Module-level pool target: recompute one group from its descriptor.

    ``args`` is ``(descriptor, locator)``.  The locator is ``None`` for
    a store-less sweep, else the orchestrator's ``(path, kind)``: the
    kind travels alongside the path, so a forced kind
    (``open_backend(path, "json")`` on a ``.sqlite``-named directory,
    say) survives the round trip instead of being re-sniffed into the
    wrong backend.
    """
    payload, locator = args
    backend = None if locator is None else open_backend(*locator)
    return _compute_and_save(group_from_payload(payload), backend, f"proc-{os.getpid()}")


def _collect(groups: Sequence[TaskGroup], outs_per_group) -> dict[tuple[int, int], list]:
    results: dict[tuple[int, int], list] = {}
    for group, outs in zip(groups, outs_per_group):
        results.update(zip(group.indices, outs))
    return results


def _served(present: dict, group: TaskGroup) -> list[list] | None:
    """The group's results if ``present`` holds every member, else ``None``."""
    if all(key in present for key in group.keys):
        return [present[key] for key in group.keys]
    return None


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
@runtime_checkable
class Executor(Protocol):
    """The execute-stage contract of the sweep pipeline.

    ``execute`` receives the pending (non-cached) task groups and the
    results backend (``None`` for store-less sweeps) and returns a
    result per ``(point index, run index)``.  Implementations must
    persist computed points to the backend as they land and must return
    results identical to a serial in-process computation.  With
    ``resume=False`` every given group must be *computed*, never served
    from artifacts that happen to pre-exist in the backend.
    """

    #: Executor name recorded in sweep manifests.
    name: str

    def execute(
        self,
        groups: Sequence[TaskGroup],
        *,
        backend: ResultsBackend | None,
        resume: bool = True,
    ) -> dict[tuple[int, int], list]:
        """Compute all groups; return ``{(point, run): result}``."""
        ...  # pragma: no cover - protocol


class SerialExecutor:
    """Compute every group in-process, in order (the default)."""

    name = "serial"

    def execute(
        self,
        groups: Sequence[TaskGroup],
        *,
        backend: ResultsBackend | None,
        resume: bool = True,
    ) -> dict[tuple[int, int], list]:
        """Compute and save each group in turn, on the caller's backend."""
        worker = f"proc-{os.getpid()}"
        return _collect(groups, [_compute_and_save(g, backend, worker) for g in groups])


class ProcessExecutor:
    """Fan groups out across a local process pool.

    Parameters
    ----------
    processes:
        Pool size; ``None``/``0``/``1`` degrade to serial execution
        (matching :func:`repro.sim.runner.parallel_map`).
    """

    name = "process"

    def __init__(self, processes: int | None = None) -> None:
        self.processes = processes

    def execute(
        self,
        groups: Sequence[TaskGroup],
        *,
        backend: ResultsBackend | None,
        resume: bool = True,
    ) -> dict[tuple[int, int], list]:
        """Map groups over the pool; order (and results) are deterministic."""
        locator = None if backend is None else (backend.locator, backend.kind)
        tasks = [(group_payload(g), locator) for g in groups]
        outs = parallel_map(_execute_group_task, tasks, processes=self.processes)
        return _collect(groups, outs)


class WorkerExecutor:
    """Drain a sweep through the shared store's task queue.

    ``execute`` publishes every pending group as a task descriptor in
    the results backend, then participates in the drain itself: it
    repeatedly claims unowned tasks (lease files / lease rows with a
    TTL) and computes them, while collecting points that external
    ``minim-cdma worker`` processes save concurrently.  Any number of
    workers — other processes, other hosts sharing the store — can join
    and leave at any time; abandoned leases expire after
    ``DEFAULT_CLAIM_TTL`` seconds and are re-claimed, giving
    at-least-once completion.  A group whose lease has been broken
    ``DEFAULT_QUARANTINE_AFTER`` times is parked in the store's
    quarantine table, and the sweep then fails loudly instead of
    feeding it to workers forever; ``minim-cdma store requeue``
    releases it after inspection.

    Parameters
    ----------
    max_wait:
        Upper bound on waiting *without any progress* before the sweep
        errors out (the deadline resets every time a group completes).
    """

    name = "worker"

    def __init__(self, *, max_wait: float = 600.0) -> None:
        self.max_wait = max_wait

    def execute(
        self,
        groups: Sequence[TaskGroup],
        *,
        backend: ResultsBackend | None,
        resume: bool = True,
    ) -> dict[tuple[int, int], list]:
        """Publish groups to the store queue and drain until complete.

        With ``resume=False`` pre-existing artifacts must not satisfy
        the sweep, so the queue protocol (whose completion signal *is*
        "the points exist") cannot be used: the orchestrator computes
        every group itself, unclaimed, overwriting stale artifacts —
        same results, honest recomputation.
        """
        if backend is None:
            raise ConfigurationError(
                "WorkerExecutor needs a results store (run_sweep(..., store=...)): "
                "the store is the queue workers share"
            )
        owner = f"orchestrator-{os.getpid()}"
        if not resume:
            return _collect(groups, [_compute_and_save(g, backend, owner) for g in groups])
        for group in groups:
            backend.save_task(group.key, group_payload(group))
        missing = {group.key: group for group in groups}
        results: dict[tuple[int, int], list] = {}
        deadline = time.monotonic() + self.max_wait
        last_present = -1
        beat = _HeartbeatClock()
        while missing:
            progressed = False
            beat.maybe_beat(backend, owner)
            # one batched probe per poll: completed members of every
            # still-missing group (cheap on SQLite's bulk path)
            present = backend.load_points([k for g in missing.values() for k in g.keys])
            for gkey, group in list(missing.items()):
                outs = _served(present, group)
                if outs is not None:
                    backend.delete_task(gkey)
                else:
                    _, outs = _claim_step(backend, group, owner, beat, DEFAULT_QUARANTINE_AFTER)
                if outs is not None:
                    results.update(zip(group.indices, outs))
                    del missing[gkey]
                    progressed = True
            # checked *after* the serve pass, so a parked group whose
            # points all landed anyway still completes the sweep
            parked = sorted(set(backend.list_quarantined()) & set(missing))
            if parked:
                # a group this sweep still needs was parked (by us or by
                # an external worker): fail loudly, point at the lever
                raise ConfigurationError(
                    f"{len(parked)} task group(s) quarantined after repeated lease "
                    f"breaks: {', '.join(parked[:3])}"
                    f"{', …' if len(parked) > 3 else ''} — inspect with "
                    f"`minim-cdma store stats {backend.locator}` and release with "
                    f"`minim-cdma store requeue {backend.locator}`"
                )
            if progressed or len(present) != last_present:
                # max_wait bounds time *without progress* — and progress
                # includes individual members landed by a worker still
                # mid-group, so a long healthy drain never trips the
                # stall detector while leases keep renewing
                deadline = time.monotonic() + self.max_wait
            last_present = len(present)
            if missing and not progressed:
                if time.monotonic() > deadline:
                    raise ConfigurationError(
                        f"worker sweep stalled: {len(missing)} task(s) incomplete after "
                        f"{self.max_wait:.0f}s (are any workers draining {backend.locator}?)"
                    )
                time.sleep(_ORCHESTRATOR_POLL)
        return results


def _claim_step(
    backend: ResultsBackend,
    group: TaskGroup,
    owner: str,
    beat: "_HeartbeatClock",
    quarantine_after: int,
) -> tuple[str, list[list] | None]:
    """Claim one published group and see it through; both drains call this.

    Quarantine check → claim → re-probe the stored points under the
    claim (a peer may have landed them since the caller's probe) →
    compute whatever is still missing → delete the task → release the
    claim.  Returns ``(status, results)``: ``"quarantined"`` (parked
    instead of claimed) and ``"held"`` (a peer holds the claim) come
    with ``None``; ``"served"`` (the re-probe found every point) and
    ``"computed"`` come with the group's results.  The re-probe shrinks,
    but cannot close, the at-least-once duplicate window; point saves
    are idempotent, so a duplicate computation is safe.
    """
    gkey = group.key
    if _maybe_quarantine(backend, gkey, quarantine_after):
        return "quarantined", None
    if not backend.try_claim(gkey, owner, ttl=DEFAULT_CLAIM_TTL):
        return "held", None
    obs.event("queue.claim", cat="queue", key=gkey, owner=owner)
    beat.maybe_beat(backend, owner)
    try:
        status, outs = "served", _served(backend.load_points(list(group.keys)), group)
        if outs is None:
            status, outs = "computed", _compute_and_save(group, backend, owner, lease=gkey)
        backend.delete_task(gkey)
    finally:
        backend.release_claim(gkey)
    return status, outs


def _maybe_quarantine(backend: ResultsBackend, gkey: str, quarantine_after: int) -> bool:
    """Park ``gkey`` when its lease-break count crossed the threshold.

    Returns ``True`` when the task is (now) quarantined and must not be
    claimed.  Part of :func:`_claim_step`, so every claimant applies the
    same poison-task policy.  A threshold ``<= 0`` disables quarantining
    entirely.

    A task holding a *fresh* lease (younger than ``DEFAULT_CLAIM_TTL``)
    is never parked: its breaks necessarily count previous holders, and
    the current claimant is still making progress — quarantining would
    yank a live computation's claim.  This check-then-park window is
    best-effort, not atomic; a lost race only re-exposes the task to
    the at-least-once machinery, which stays safe because point saves
    are idempotent.
    """
    if quarantine_after <= 0:
        return False
    breaks = backend.lease_breaks(gkey)
    if breaks < quarantine_after:
        return False
    age = backend.claim_age(gkey)
    if age is not None and age <= DEFAULT_CLAIM_TTL:
        return False
    backend.quarantine_task(gkey, reason=f"{breaks} broken leases")
    obs.event("queue.quarantine", cat="queue", key=gkey, breaks=breaks)
    return True


class _HeartbeatClock:
    """Rate-limits worker heartbeats to a fraction of the lease TTL.

    A beat both stamps the store (so ``store stats``/``watch`` can flag
    a worker whose last beat is older than the TTL) and emits a trace
    event.  One third of the TTL keeps a healthy worker comfortably
    inside the staleness window across scheduling jitter.
    """

    def __init__(self, claim_ttl: float = DEFAULT_CLAIM_TTL) -> None:
        self.every = max(claim_ttl / 3.0, 0.05)
        self._last: float | None = None

    def maybe_beat(self, backend: ResultsBackend, owner: str) -> None:
        now = time.monotonic()
        if self._last is not None and now - self._last < self.every:
            return
        self._last = now
        backend.record_heartbeat(owner)
        obs.event("worker.heartbeat", cat="worker", owner=owner)


# ----------------------------------------------------------------------
# The worker loop (``minim-cdma worker``)
# ----------------------------------------------------------------------
def run_worker(
    backend: ResultsBackend,
    *,
    poll: float = 0.2,
    max_idle: float = 10.0,
    once: bool = False,
    owner: str | None = None,
    quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
) -> int:
    """Drain published task groups from a shared results backend.

    The loop of a ``minim-cdma worker`` process: scan the queue and
    take each task through :func:`_claim_step` (claim, recompute from
    its descriptor, persist the member points, delete the task, release
    the claim).  Tasks whose points already exist (computed by a faster
    peer) are cleaned up without recomputation.  Poison tasks are
    *parked*, not retried forever: an undecodable descriptor (wrong
    schema, tampered payload) is quarantined immediately, and a task
    whose lease has been broken ``quarantine_after`` times (every break
    is a claimant that died mid-computation) is quarantined instead of
    claimed — one poison task must not grind down the whole fleet.
    ``minim-cdma store requeue`` releases quarantined tasks after
    inspection; ``quarantine_after <= 0`` disables churn-based parking.
    The loop stamps a heartbeat into the store every third of the lease
    TTL so the monitor can flag silently dead workers.  Returns the
    number of groups this worker computed; exits after ``max_idle``
    seconds without finding work (or after one scan with ``once``).
    """
    owner = owner or f"worker-{os.getpid()}"
    computed = 0
    idle_since: float | None = None
    beat = _HeartbeatClock()
    while True:
        worked = False
        beat.maybe_beat(backend, owner)
        for gkey in backend.pending_task_keys():
            payload = backend.load_task(gkey)
            if payload is None:
                continue  # finished (and deleted) by a peer mid-scan
            try:
                group = group_from_payload(payload)
            except ConfigurationError as exc:
                backend.quarantine_task(gkey, reason=f"undecodable descriptor: {exc}")
                print(f"worker: quarantined undecodable task {gkey}: {exc}")
                worked = True
                continue
            if _served(backend.load_points(list(group.keys)), group) is not None:
                # completed work is cleaned up, never quarantined — a
                # claimant that saved every point but died before
                # delete_task must not look like poison
                backend.delete_task(gkey)
                worked = True
                continue
            status, _ = _claim_step(backend, group, owner, beat, quarantine_after)
            if status == "held":
                continue
            if status == "quarantined":
                print(
                    f"worker: quarantined task {gkey} after "
                    f"{backend.lease_breaks(gkey)} broken leases"
                )
            computed += status == "computed"
            worked = True
        if once:
            return computed
        now = time.monotonic()
        if worked:
            idle_since = None
            continue
        if idle_since is None:
            idle_since = now
        elif now - idle_since >= max_idle:
            return computed
        time.sleep(poll)


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
_EXECUTOR_NAMES = ("serial", "process", "worker")


def resolve_executor(executor: "Executor | str | None", processes: int | None) -> "Executor":
    """Resolve the ``executor``/``processes`` arguments to an instance.

    ``None`` keeps the historical behavior: a process pool when
    ``processes`` asks for one, else serial.  Strings name the built-in
    executors; instances pass through.  Asking for ``"process"``
    without a pool size means "use the machine": it defaults to the CPU
    count rather than silently degrading to a serial loop.
    """
    if executor is None:
        if processes and processes > 1:
            return ProcessExecutor(processes)
        return SerialExecutor()
    if isinstance(executor, str):
        if executor == "serial":
            return SerialExecutor()
        if executor == "process":
            return ProcessExecutor(processes if processes is not None else os.cpu_count())
        if executor == "worker":
            return WorkerExecutor()
        raise ConfigurationError(
            f"unknown executor {executor!r} (expected one of {_EXECUTOR_NAMES})"
        )
    if isinstance(executor, Executor):
        return executor
    raise ConfigurationError(f"not an executor: {executor!r}")
