"""Geometry substrate: 2-D kernels used by the topology layer.

Everything here is a pure function over NumPy arrays (positions are
``(n, 2)`` ``float64`` arrays) or a small, self-contained data structure.
The topology layer builds the ad-hoc digraph on top of these kernels.
"""

from repro.geometry.distance import (
    distances_from,
    pairwise_distances,
    within_disc,
)
from repro.geometry.obstacles import RectObstacle, segment_intersects_rect
from repro.geometry.point import (
    as_position_array,
    displace,
    random_directions,
    random_positions,
)

__all__ = [
    "RectObstacle",
    "as_position_array",
    "displace",
    "distances_from",
    "pairwise_distances",
    "random_directions",
    "random_positions",
    "segment_intersects_rect",
    "within_disc",
]
