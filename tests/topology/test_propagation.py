"""Tests for propagation models."""

import numpy as np

from repro.geometry.obstacles import RectObstacle
from repro.topology.builder import build_digraph
from repro.topology.node import NodeConfig
from repro.topology.propagation import (
    FreeSpacePropagation,
    ObstructedPropagation,
    PropagationModel,
)


class TestFreeSpace:
    def test_coverage_inclusive(self):
        prop = FreeSpacePropagation()
        targets = np.array([[3.0, 4.0], [6.0, 8.0]])
        mask = prop.coverage(np.zeros(2), 5.0, targets)
        assert mask.tolist() == [True, False]

    def test_covered_by(self):
        prop = FreeSpacePropagation()
        srcs = np.array([[3.0, 4.0], [6.0, 8.0]])
        ranges = np.array([5.0, 5.0])
        mask = prop.covered_by(np.zeros(2), srcs, ranges)
        assert mask.tolist() == [True, False]

    def test_empty_targets(self):
        prop = FreeSpacePropagation()
        assert prop.coverage(np.zeros(2), 5.0, np.zeros((0, 2))).shape == (0,)
        assert prop.covered_by(np.zeros(2), np.zeros((0, 2)), np.zeros(0)).shape == (0,)

    def test_protocol_conformance(self):
        assert isinstance(FreeSpacePropagation(), PropagationModel)
        assert isinstance(ObstructedPropagation(), PropagationModel)


class TestObstructed:
    wall = RectObstacle(4.0, -10.0, 6.0, 10.0)

    def test_wall_blocks_in_range_target(self):
        prop = ObstructedPropagation(obstacles=(self.wall,))
        targets = np.array([[10.0, 0.0], [0.0, 3.0]])
        mask = prop.coverage(np.zeros(2), 20.0, targets)
        assert mask.tolist() == [False, True]

    def test_covered_by_symmetric_blocking(self):
        prop = ObstructedPropagation(obstacles=(self.wall,))
        srcs = np.array([[10.0, 0.0]])
        assert not prop.covered_by(np.zeros(2), srcs, np.array([20.0]))[0]

    def test_no_obstacles_equals_free_space(self):
        rng = np.random.default_rng(0)
        targets = rng.uniform(0, 100, (50, 2))
        src = np.array([50.0, 50.0])
        free = FreeSpacePropagation().coverage(src, 30.0, targets)
        obs = ObstructedPropagation().coverage(src, 30.0, targets)
        assert (free == obs).all()

    def test_digraph_with_obstruction(self):
        prop = ObstructedPropagation(obstacles=(self.wall,))
        g = build_digraph(
            [
                NodeConfig(1, 0.0, 0.0, tx_range=20.0),
                NodeConfig(2, 10.0, 0.0, tx_range=20.0),
                NodeConfig(3, 0.0, 5.0, tx_range=20.0),
            ],
            propagation=prop,
        )
        # 1 and 2 are separated by the wall; 1 and 3 are not.
        assert not g.has_edge(1, 2) and not g.has_edge(2, 1)
        assert g.has_edge(1, 3) and g.has_edge(3, 1)
