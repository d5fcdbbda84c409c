"""Event logs and parallel-join planning.

The paper assumes events are sequenced one at a time, then relaxes this
for joins: "The algorithm supports simultaneous additions of new nodes
when any two of them are at least 5 hops apart" (Theorem 4.1.10).
``plan_parallel_join_batches`` greedily partitions a stream of joins into
batches whose members are pairwise at least that far apart once
inserted, so each batch may be recoded concurrently.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.events.base import Event, JoinEvent
from repro.topology.digraph import AdHocDigraph
from repro.topology.neighborhoods import k_hop_neighbors

__all__ = ["EventLog", "plan_parallel_join_batches"]


class EventLog:
    """An append-only record of events with per-kind counts."""

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self._events: list[Event] = list(events)

    def append(self, event: Event) -> None:
        """Record ``event``."""
        self._events.append(event)

    def extend(self, events: Iterable[Event]) -> None:
        """Record several events in order."""
        self._events.extend(events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, i: int) -> Event:
        return self._events[i]

    def counts_by_kind(self) -> dict[str, int]:
        """Number of recorded events per kind tag."""
        out: dict[str, int] = {}
        for e in self._events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out


def plan_parallel_join_batches(
    graph: AdHocDigraph,
    joins: Iterable[JoinEvent],
    *,
    min_separation: int = 5,
) -> list[list[JoinEvent]]:
    """Partition ``joins`` into batches safe to recode concurrently.

    Two joins may share a batch when, with all of the batch's nodes
    inserted, every pair of joining nodes is at least ``min_separation``
    undirected hops apart (or disconnected).  Planning is greedy in input
    order, so earlier joins fill earlier batches.

    Planning runs on one scratch copy of ``graph`` (the input is not
    modified): each candidate is inserted and kept or removed again
    after one bounded search — a batch-mate within ``min_separation -
    1`` hops of it is too close — and each batch stays inserted as the
    base of the next one.
    """
    if min_separation < 1:
        raise ValueError(f"min_separation must be >= 1, got {min_separation}")
    pending = list(joins)
    batches: list[list[JoinEvent]] = []
    scratch = graph.copy()
    while pending:
        batch: list[JoinEvent] = []
        leftovers: list[JoinEvent] = []
        for ev in pending:
            scratch.add_node(ev.config)
            near = k_hop_neighbors(scratch, ev.config.node_id, min_separation - 1)
            if any(other.config.node_id in near for other in batch):
                scratch.remove_node(ev.config.node_id)
                leftovers.append(ev)
            else:
                batch.append(ev)
        batches.append(batch)
        pending = leftovers
    return batches
