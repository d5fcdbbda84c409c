"""Propagation models: which targets does a transmitter cover?

The paper's base model is the free-space disc: ``vi -> vj`` iff
``d_ij <= r_i``.  Section 2 notes the generalization where obstacles can
suppress an edge even within range; :class:`ObstructedPropagation`
implements that with rectangular obstacles and line-of-sight tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Protocol, runtime_checkable

import numpy as np

from repro.geometry.distance import within_disc
from repro.geometry.obstacles import RectObstacle, los_mask

__all__ = [
    "PropagationModel",
    "FreeSpacePropagation",
    "ObstructedPropagation",
    "pairwise_masks",
]


@runtime_checkable
class PropagationModel(Protocol):
    """Strategy deciding which targets a transmission covers."""

    def coverage(
        self,
        src_position: np.ndarray,
        src_range: float,
        target_positions: np.ndarray,
    ) -> np.ndarray:
        """Boolean mask over ``target_positions`` rows covered by the source.

        Implementations must be pure functions of their arguments.  The
        caller removes self-loops; implementations need not.
        """
        ...  # pragma: no cover - protocol

    def covered_by(
        self,
        target_position: np.ndarray,
        src_positions: np.ndarray,
        src_ranges: np.ndarray,
    ) -> np.ndarray:
        """Boolean mask over sources: which of them cover ``target_position``.

        The reverse query (used to recompute a node's in-edges after a
        join or move).
        """
        ...  # pragma: no cover - protocol


def pairwise_masks(
    model: PropagationModel,
    position: np.ndarray,
    tx_range: float,
    positions: np.ndarray,
    ranges: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(coverage, covered_by)`` masks of one node against other nodes.

    The fused query of the array conflict core: after a join or move of
    a node both its out-edges (*which nodes does it cover?*) and its
    in-edges (*which nodes cover it?*) must be recomputed over all live
    slots.  Models exposing a ``pairwise`` method (the
    built-in free-space and obstructed models do) answer both from one
    distance pass; other models fall back to two independent queries.
    Either way the masks are bitwise identical to separate
    ``coverage``/``covered_by`` calls — every path through the conflict
    cores must produce byte-identical edges.
    """
    native = getattr(model, "pairwise", None)
    if native is not None:
        return native(position, tx_range, positions, ranges)
    return (
        model.coverage(position, tx_range, positions),
        model.covered_by(position, positions, ranges),
    )


@dataclass(frozen=True)
class FreeSpacePropagation:
    """The paper's base model: closed disc of radius ``src_range``.

    ``disc_bounded`` declares that coverage never exceeds the
    transmission disc; :class:`~repro.topology.digraph.AdHocDigraph`
    records a cell size in its snapshots only for such models.
    """

    disc_bounded: ClassVar[bool] = True

    def coverage(
        self,
        src_position: np.ndarray,
        src_range: float,
        target_positions: np.ndarray,
    ) -> np.ndarray:
        """Mask of targets within the closed transmission disc."""
        if len(target_positions) == 0:
            return np.zeros(0, dtype=bool)
        return within_disc(target_positions, src_position, src_range)

    def covered_by(
        self,
        target_position: np.ndarray,
        src_positions: np.ndarray,
        src_ranges: np.ndarray,
    ) -> np.ndarray:
        """Mask of sources whose disc covers ``target_position``."""
        if len(src_positions) == 0:
            return np.zeros(0, dtype=bool)
        pos = np.asarray(src_positions, dtype=np.float64)
        diff = pos - np.asarray(target_position, dtype=np.float64).reshape(2)
        d2 = np.einsum("ij,ij->i", diff, diff)
        r = np.asarray(src_ranges, dtype=np.float64)
        return d2 <= r * r

    def pairwise(
        self,
        position: np.ndarray,
        tx_range: float,
        positions: np.ndarray,
        ranges: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(coverage, covered_by)`` from a single distance pass.

        The array core's fused edge recomputation: the squared distances
        to the candidate set are computed once and compared against the
        node's own range (out-edges) and the candidates' ranges
        (in-edges).  Bitwise identical to separate ``coverage`` /
        ``covered_by`` calls.
        """
        if len(positions) == 0:
            empty = np.zeros(0, dtype=bool)
            return empty, empty
        pos = np.asarray(positions, dtype=np.float64)
        diff = pos - np.asarray(position, dtype=np.float64).reshape(2)
        d2 = np.einsum("ij,ij->i", diff, diff)
        r = np.asarray(ranges, dtype=np.float64)
        return d2 <= float(tx_range) * float(tx_range), d2 <= r * r


@dataclass(frozen=True)
class ObstructedPropagation:
    """Disc propagation filtered by line-of-sight around obstacles.

    A target is covered iff it is within range *and* the straight segment
    from source to target does not cross any obstacle.  Coverage is a
    subset of the free-space disc (``disc_bounded``).
    """

    disc_bounded: ClassVar[bool] = True

    obstacles: tuple[RectObstacle, ...] = field(default_factory=tuple)

    def coverage(
        self,
        src_position: np.ndarray,
        src_range: float,
        target_positions: np.ndarray,
    ) -> np.ndarray:
        """Mask of in-range targets with unobstructed line of sight."""
        if len(target_positions) == 0:
            return np.zeros(0, dtype=bool)
        mask = within_disc(target_positions, src_position, src_range)
        if self.obstacles and mask.any():
            # Only run LOS tests for in-range candidates.
            idx = np.flatnonzero(mask)
            visible = los_mask(src_position, np.asarray(target_positions)[idx], self.obstacles)
            mask = mask.copy()
            mask[idx] = visible
        return mask

    def covered_by(
        self,
        target_position: np.ndarray,
        src_positions: np.ndarray,
        src_ranges: np.ndarray,
    ) -> np.ndarray:
        """Mask of covering sources with unobstructed line of sight."""
        if len(src_positions) == 0:
            return np.zeros(0, dtype=bool)
        pos = np.asarray(src_positions, dtype=np.float64)
        tgt = np.asarray(target_position, dtype=np.float64).reshape(2)
        diff = pos - tgt
        d2 = np.einsum("ij,ij->i", diff, diff)
        r = np.asarray(src_ranges, dtype=np.float64)
        mask = d2 <= r * r
        if self.obstacles and mask.any():
            # Line of sight is symmetric, so reuse the forward test.
            idx = np.flatnonzero(mask)
            visible = los_mask(tgt, pos[idx], self.obstacles)
            mask = mask.copy()
            mask[idx] = visible
        return mask

    def pairwise(
        self,
        position: np.ndarray,
        tx_range: float,
        positions: np.ndarray,
        ranges: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(coverage, covered_by)`` sharing one distance and LOS pass.

        Distances are computed once; line-of-sight (symmetric between a
        pair of points) is tested once over the union of in-range
        candidates and applied to both directions — bitwise identical
        to separate ``coverage`` / ``covered_by`` calls.
        """
        if len(positions) == 0:
            empty = np.zeros(0, dtype=bool)
            return empty, empty
        pos = np.asarray(positions, dtype=np.float64)
        origin = np.asarray(position, dtype=np.float64).reshape(2)
        diff = pos - origin
        d2 = np.einsum("ij,ij->i", diff, diff)
        r = np.asarray(ranges, dtype=np.float64)
        cov = d2 <= float(tx_range) * float(tx_range)
        covby = d2 <= r * r
        if self.obstacles:
            either = cov | covby
            if either.any():
                idx = np.flatnonzero(either)
                visible = np.ones(len(pos), dtype=bool)
                visible[idx] = los_mask(origin, pos[idx], self.obstacles)
                cov = cov & visible
                covby = covby & visible
        return cov, covby
