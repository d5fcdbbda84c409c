"""Neighborhood structure around a (re)configuring node.

Implements the ``1n / 2n / 3n / 4n`` partition of Fig 2 in the paper:
when node ``n`` is present in the digraph, the remaining nodes split into

* ``1n`` — in-neighbors only (they reach ``n``; ``n`` does not reach them),
* ``2n`` — bidirectional neighbors,
* ``3n`` — out-neighbors only (``n`` reaches them; they do not reach ``n``),
* ``4n`` — no edges with ``n`` in either direction.

The recoding strategies operate on ``V1 = 1n ∪ 2n ∪ {n}``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from itertools import chain

from repro.topology.static import DigraphLike
from repro.types import NodeId

__all__ = ["JoinPartition", "join_partition", "k_hop_neighbors", "vicinity"]


@dataclass(frozen=True)
class JoinPartition:
    """The Fig-2 partition of the network around a node ``n``.

    ``one``/``two``/``three`` come from ``n``'s in- and out-neighbor
    lists; ``four`` (everything else) is derived from ``graph``'s
    current node set only when read, so building a partition never
    costs O(N).
    """

    node: NodeId
    one: frozenset[NodeId]
    two: frozenset[NodeId]
    three: frozenset[NodeId]
    graph: DigraphLike = field(repr=False, compare=False)

    @property
    def four(self) -> frozenset[NodeId]:
        """``4n`` — nodes with no edge to or from ``n``."""
        return frozenset(self.graph.node_ids()) - self.one - self.two - self.three - {self.node}

    @property
    def v1(self) -> frozenset[NodeId]:
        """``V1 = 1n ∪ 2n ∪ {n}`` — the recoding candidate set."""
        return self.one | self.two | {self.node}

    @property
    def in_neighbors(self) -> frozenset[NodeId]:
        """All nodes with an edge into ``n`` (``1n ∪ 2n``)."""
        return self.one | self.two

    @property
    def out_neighbors(self) -> frozenset[NodeId]:
        """All nodes ``n`` has an edge to (``2n ∪ 3n``)."""
        return self.two | self.three


def join_partition(graph: DigraphLike, node_id: NodeId) -> JoinPartition:
    """Partition all other nodes into ``1n/2n/3n/4n`` relative to ``node_id``.

    ``node_id`` must already be present in ``graph`` (for a join, call
    after inserting the node; for a move, after relocating it).
    """
    into = frozenset(graph.in_neighbors(node_id))
    outof = frozenset(graph.out_neighbors(node_id))
    both = into & outof
    return JoinPartition(node=node_id, one=into - both, two=both, three=outof - both, graph=graph)


def _within_hops(start: int, k: int, row: Callable[[int], Iterable[int]]) -> set[int]:
    """Vertices 1..``k`` hops from ``start``; ``row(v)`` lists ``v``'s neighbors.

    A breadth-first search that stops after ``k`` frontier steps.
    """
    seen = {start}
    frontier: Iterable[int] = (start,)
    for _ in range(k):
        fresh = {w for v in frontier for w in row(v)} - seen
        if not fresh:
            break
        seen |= fresh
        frontier = fresh
    seen.discard(start)
    return seen


def k_hop_neighbors(graph: DigraphLike, node_id: NodeId, k: int) -> set[NodeId]:
    """Nodes within ``k`` undirected hops of ``node_id`` (excluding it).

    The CP baseline constrains color choices by the colors "taken by any
    of its 1 hop and 2 hop neighbors"; this is that set with ``k = 2``.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return _within_hops(node_id, k, lambda v: chain(graph.in_neighbors(v), graph.out_neighbors(v)))


def vicinity(graph: DigraphLike, node_id: NodeId, k: int = 2) -> set[NodeId]:
    """``{node_id} ∪ k_hop_neighbors`` — the node's k-hop vicinity."""
    out = k_hop_neighbors(graph, node_id, k)
    out.add(node_id)
    return out
