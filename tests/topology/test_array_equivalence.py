"""The array conflict core against the topology oracle.

The acceptance bar for every core change: on randomized event traces
the core must match the brute-force oracle
(``tests/topology/oracles.py`` — adjacency, conflict sets and CA2
witness counters re-derived from the node configurations) after every
event.  The slot-indexed query surface (``v1_slots``,
``conflict_pairs``) must agree with the id-level queries it replaces,
and snapshots written by the retired dict and dense cores must still
restore.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geometry.obstacles import RectObstacle
from repro.topology.digraph import AdHocDigraph
from repro.topology.node import NodeConfig
from repro.topology.propagation import FreeSpacePropagation, ObstructedPropagation
from tests.topology.oracles import assert_matches_oracle

# run the test once per edge kernel (see tests/conftest.py::use_kernel)
per_kernel = pytest.mark.usefixtures("each_kernel")


def _random_trace(g, seed, steps, area=100.0, first_id=1, alive=None):
    """Random joins, leaves, moves and power changes; the oracle after each."""
    rng = np.random.default_rng(seed)
    alive = list(alive) if alive is not None else []
    next_id = first_id
    for _ in range(steps):
        op = int(rng.integers(0, 5))
        if op in (0, 1) or not alive:
            cfg = NodeConfig(
                next_id,
                float(rng.uniform(0, area)),
                float(rng.uniform(0, area)),
                float(rng.uniform(5, 40)),
            )
            g.add_node(cfg)
            alive.append(next_id)
            next_id += 1
        elif op == 2 and len(alive) > 1:
            v = alive.pop(int(rng.integers(0, len(alive))))
            g.remove_node(v)
        elif op == 3:
            v = alive[int(rng.integers(0, len(alive)))]
            x, y = float(rng.uniform(0, area)), float(rng.uniform(0, area))
            g.move_node(v, x, y)
        else:
            # occasionally a large raise (exercises the recorded-cell raise)
            v = alive[int(rng.integers(0, len(alive)))]
            r = float(rng.uniform(5, 40)) * (6.0 if rng.random() < 0.1 else 1.0)
            g.set_range(v, r)
        assert_matches_oracle(g)


class TestRandomizedArrayEquivalence:
    @per_kernel
    @pytest.mark.parametrize("seed", range(6))
    def test_free_space_traces_identical(self, seed):
        _random_trace(AdHocDigraph(), seed, steps=70)

    @pytest.mark.parametrize("seed", range(4))
    def test_obstructed_propagation_identical(self, seed):
        prop = ObstructedPropagation((RectObstacle(30.0, 30.0, 60.0, 40.0),))
        _random_trace(AdHocDigraph(prop), seed, steps=45)

    @per_kernel
    def test_copies_diverge_independently(self):
        g = AdHocDigraph()
        rng = np.random.default_rng(3)
        for i in range(1, 30):
            g.add_node(
                NodeConfig(i, float(rng.uniform(0, 100)), float(rng.uniform(0, 100)), 25.0)
            )
        clone = g.copy()
        clone.remove_node(2)
        clone.move_node(7, 0.0, 0.0)
        assert g.snapshot() != clone.snapshot()  # copies diverge independently
        for graph in (g, clone):
            assert_matches_oracle(graph)


#: Hand-built traces for the corners random traces rarely hit: ops are
#: ``("add", id, x, y, r)``, ``("rm", id)``, ``("mv", id, x, y)`` and
#: ``("pw", id, r)``.
_CORNER_TRACES = {
    "coincident-nodes": [
        *[("add", i, 40.0, 40.0, 10.0) for i in range(1, 5)],
        ("add", 5, 45.0, 40.0, 1.0),
        ("mv", 2, 49.0, 40.0),
        ("rm", 1),
        ("mv", 5, 40.0, 40.0),
        ("pw", 3, 0.5),
    ],
    "range-on-the-boundary": [
        ("add", 1, 0.0, 0.0, 5.0),
        ("add", 2, 3.0, 4.0, 5.0),
        ("add", 3, 6.0, 8.0, 4.999),
        ("pw", 1, 4.999),
        ("pw", 3, 5.0),
        ("mv", 2, -3.0, -4.0),
        ("pw", 1, 5.0),
    ],
    "isolate-and-reconnect-a-hub": [
        ("add", 1, 50.0, 50.0, 30.0),
        *[("add", i, 50.0 + 8.0 * i, 50.0 - 5.0 * i, 12.0) for i in range(2, 7)],
        ("pw", 1, 0.1),
        ("pw", 1, 60.0),
        ("pw", 4, 0.1),
        ("rm", 1),
        ("add", 1, 50.0, 50.0, 30.0),
    ],
    "collapse-and-spread": [
        *[("add", i, 15.0 * i, 7.0 * i, 20.0) for i in range(1, 7)],
        *[("mv", i, 33.0, 33.0) for i in range(1, 7)],
        *[("mv", i, 33.0 + 25.0 * i, 33.0 - 11.0 * i) for i in range(1, 7)],
    ],
    "drain-and-rebuild": [
        *[("add", i, 10.0 * i, 10.0, 15.0) for i in range(1, 6)],
        *[("rm", i) for i in (3, 1, 5, 2, 4)],
        *[("add", i, 10.0, 10.0 * i, 25.0) for i in (4, 2, 5)],
    ],
    "links-turn-two-way": [
        ("add", 1, 0.0, 0.0, 30.0),
        ("add", 2, 20.0, 0.0, 5.0),
        ("add", 3, 40.0, 0.0, 5.0),
        ("pw", 2, 20.0),
        ("pw", 3, 20.0),
        ("pw", 1, 19.999),
        ("pw", 2, 5.0),
    ],
    "nodes-on-cell-edges": [
        *[("add", i, 10.0 * (i % 4), 10.0 * (i // 4), 10.0) for i in range(1, 13)],
        ("mv", 5, 20.0, 20.0),
        ("pw", 6, 20.0),
        ("mv", 7, -10.0, 0.0),
        ("rm", 6),
    ],
    "far-jumps": [
        *[("add", i, 5.0 * i, 5.0, 8.0) for i in range(1, 6)],
        ("mv", 3, -900.0, 1200.0),
        ("pw", 3, 2000.0),
        ("mv", 1, -905.0, 1200.0),
        ("pw", 3, 8.0),
        ("mv", 3, 15.0, 5.0),
    ],
}


def _apply_op(g, op):
    kind, node_id, *args = op
    if kind == "add":
        g.add_node(NodeConfig(node_id, *args))
    elif kind == "rm":
        g.remove_node(node_id)
    elif kind == "mv":
        g.move_node(node_id, *args)
    else:
        g.set_range(node_id, *args)


class TestCornerTraces:
    @per_kernel
    @pytest.mark.parametrize("name", sorted(_CORNER_TRACES))
    def test_core_matches_the_oracle_on_every_step(self, name):
        g = AdHocDigraph()
        for op in _CORNER_TRACES[name]:
            _apply_op(g, op)
            assert_matches_oracle(g)


@per_kernel
class TestSlotQuerySurface:
    @pytest.fixture
    def graph(self):
        g = AdHocDigraph()
        rng = np.random.default_rng(11)
        for i in range(1, 40):
            g.add_node(
                NodeConfig(
                    i,
                    float(rng.uniform(0, 100)),
                    float(rng.uniform(0, 100)),
                    float(rng.uniform(10, 35)),
                )
            )
        return g

    def test_slot_ids_and_slot_of_are_inverse(self, graph):
        ids = graph.slot_ids()
        assert not ids.flags.writeable
        for slot, node_id in enumerate(ids.tolist()):
            assert graph.slot_of(node_id) == slot

    def test_out_in_slots_match_id_queries(self, graph):
        ids = graph.slot_ids()
        for node_id in graph.node_ids():
            s = graph.slot_of(node_id)
            assert sorted(ids[graph.out_slots(s)].tolist()) == graph.out_neighbors(node_id)
            assert sorted(ids[graph.in_slots(s)].tolist()) == graph.in_neighbors(node_id)

    def test_v1_slots_is_closed_in_neighborhood(self, graph):
        for node_id in graph.node_ids():
            s = graph.slot_of(node_id)
            expected = sorted(set(graph.in_slots(s).tolist()) | {s})
            assert graph.v1_slots(s).tolist() == expected

    def test_conflict_pairs_match_conflict_neighbor_ids(self, graph):
        ids = graph.slot_ids()
        slots = np.arange(len(ids), dtype=np.intp)[::-1]  # rows follow the request
        rows, cols = graph.conflict_pairs(slots)
        assert rows.shape == cols.shape
        assert (cols >= 0).all() and (cols < len(ids)).all()
        assert not (cols == slots[rows]).any()  # no diagonal
        # row-major: rows never decrease, columns ascend within a row
        assert (np.diff(rows) >= 0).all()
        assert (np.diff(cols)[np.diff(rows) == 0] > 0).all()
        for j, s in enumerate(slots.tolist()):
            got = set(ids[cols[rows == j]].tolist())
            assert got == graph.conflict_neighbor_ids(int(ids[s]))


def _scattered_graph():
    g = AdHocDigraph()
    rng = np.random.default_rng(21)
    for i in range(1, 80):
        g.add_node(
            NodeConfig(
                i,
                float(rng.uniform(0, 200)),
                float(rng.uniform(0, 200)),
                float(rng.uniform(10, 45)),
            )
        )
    return g


@per_kernel
class TestConflictPairs:
    @pytest.fixture
    def graph(self):
        return _scattered_graph()

    @staticmethod
    def _split(rows, cols, k):
        return [cols[rows == j] for j in range(k)]

    def test_matches_per_slot_query(self, graph):
        slots = np.arange(len(graph.slot_ids()), dtype=np.intp)
        rows, cols = graph.conflict_pairs(slots)
        for s, row in zip(slots.tolist(), self._split(rows, cols, len(slots))):
            np.testing.assert_array_equal(row, graph.conflict_slots(int(s)))

    def test_duplicate_requests_repeat_the_row(self, graph):
        slots = np.asarray([0, 3, 0, 7], dtype=np.intp)
        rows, cols = graph.conflict_pairs(slots)
        split = self._split(rows, cols, len(slots))
        np.testing.assert_array_equal(split[0], split[2])
        for s, row in zip(slots.tolist(), split):
            np.testing.assert_array_equal(row, graph.conflict_slots(s))

    def test_mutation_is_seen_by_the_next_query(self, graph):
        slots = np.asarray([0, 1, 2], dtype=np.intp)
        graph.conflict_pairs(slots)
        graph.move_node(3, 0.0, 0.0)
        rows, cols = graph.conflict_pairs(slots)
        for s, row in zip(slots.tolist(), self._split(rows, cols, len(slots))):
            np.testing.assert_array_equal(row, graph.conflict_slots(int(s)))

    def test_empty_request(self, graph):
        rows, cols = graph.conflict_pairs(np.asarray([], dtype=np.intp))
        assert rows.size == cols.size == 0


class TestArrayCoreDefaults:
    def test_core_choice_parameter_is_gone(self):
        with pytest.raises(TypeError):
            AdHocDigraph(sparse_core=True)
        with pytest.raises(TypeError):
            AdHocDigraph(grid_cell_size=10.0)
        with pytest.raises(TypeError):
            AdHocDigraph.restore(json.loads(_DICT_MODE_SNAPSHOT), sparse_core=True)


class TestRetiredKnobs:
    """Settings that selected a removed core fail loudly, naming the knob."""

    def _assert_rejected(self, monkeypatch, var, value):
        monkeypatch.setenv(var, value)
        snapshot = json.loads(_DICT_MODE_SNAPSHOT)
        for build in (AdHocDigraph, lambda: AdHocDigraph.restore(snapshot)):
            with pytest.raises(ConfigurationError, match=f"{var}=.*removed.*only conflict core"):
                build()

    @pytest.mark.parametrize("value", ["1", "yes"])
    def test_repro_dense_rejected(self, monkeypatch, value):
        self._assert_rejected(monkeypatch, "REPRO_DENSE", value)

    @pytest.mark.parametrize("value", ["1", "true"])
    def test_repro_sparse_scalar_rejected(self, monkeypatch, value):
        self._assert_rejected(monkeypatch, "REPRO_SPARSE_SCALAR", value)

    @pytest.mark.parametrize("value", ["0", ""], ids=["zero", "empty"])
    def test_repro_array_off_rejected(self, monkeypatch, value):
        self._assert_rejected(monkeypatch, "REPRO_ARRAY", value)

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_repro_sparse_rejected(self, monkeypatch, value):
        # it chose the removed sparse core by hand
        self._assert_rejected(monkeypatch, "REPRO_SPARSE", value)

    def test_former_no_op_settings_stay_accepted(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPARSE", raising=False)
        for var, value in [
            ("REPRO_DENSE", "0"),
            ("REPRO_DENSE", ""),
            ("REPRO_SPARSE_SCALAR", "0"),
            ("REPRO_SPARSE_SCALAR", ""),
            ("REPRO_ARRAY", "1"),
            ("REPRO_SPARSE", ""),
        ]:
            monkeypatch.setenv(var, value)
            assert len(AdHocDigraph()) == 0


#: Snapshots written at the parent of the core collapse by the retired
#: dense re-derive core (``"dense": true``, no CA2 counters) and dict
#: core, after six joins, a move, a power change and a leave
#: (:func:`_compat_graph`).
_DENSE_MODE_SNAPSHOT = (
    '{"schema": 3, "propagation": "FreeSpacePropagation", "dense": true, '
    '"version": 9, "explicit_cell": null, "grid_cell_size": null, "nodes": '
    '[[1, 10.0, 10.0, 25.0], [6, 5.0, 35.0, 22.0], [3, 28.0, 26.0, 30.0], '
    '[4, 50.0, 40.0, 26.0], [5, 45.0, 20.0, 28.0]], "edges": [[0, 2], [2, 0], '
    '[2, 1], [2, 3], [2, 4], [3, 4], [4, 2], [4, 3]], "c2": null}'
)
_DICT_MODE_SNAPSHOT = (
    '{"schema": 3, "propagation": "FreeSpacePropagation", "dense": false, '
    '"version": 9, "explicit_cell": null, "grid_cell_size": 25.0, "nodes": '
    '[[1, 10.0, 10.0, 25.0], [6, 5.0, 35.0, 22.0], [3, 28.0, 26.0, 30.0], '
    '[4, 50.0, 40.0, 26.0], [5, 45.0, 20.0, 28.0]], "edges": [[0, 2], [2, 0], '
    '[2, 1], [2, 3], [2, 4], [3, 4], [4, 2], [4, 3]], "c2": [[0, 4, 1], '
    '[2, 3, 1], [2, 4, 1], [3, 2, 1], [4, 0, 1], [4, 2, 1]]}'
)


def _compat_graph():
    g = AdHocDigraph()
    joins = [(10, 10, 25), (30, 12, 18), (22, 30, 30), (50, 40, 12), (45, 20, 28), (5, 35, 22)]
    for i, (x, y, r) in enumerate(joins, 1):
        g.add_node(NodeConfig(i, float(x), float(y), float(r)))
    g.move_node(3, 28.0, 26.0)
    g.set_range(4, 26.0)
    g.remove_node(2)
    return g


@per_kernel
class TestSnapshotCompatibility:
    def test_snapshot_bytes_are_pinned(self):
        # schema 3, "dense": false included: stored checkpoints and
        # re-snapshot identity must not move
        assert json.dumps(_compat_graph().snapshot()) == _DICT_MODE_SNAPSHOT

    @pytest.mark.parametrize("literal", ["dense", "dict"])
    def test_former_core_snapshots_restore(self, literal):
        text = _DENSE_MODE_SNAPSHOT if literal == "dense" else _DICT_MODE_SNAPSHOT
        restored = AdHocDigraph.restore(json.loads(text))
        assert restored.version == 9
        assert_matches_oracle(restored)  # dense: the C2 counters were re-derived
        if literal == "dict":
            assert json.dumps(restored.snapshot()) == text
        # the restored graph continues like one that never left memory
        live = _compat_graph()
        for g in (restored, live):
            g.add_node(NodeConfig(7, 40.0, 30.0, 20.0))
            g.set_range(1, 40.0)
            g.remove_node(3)
        assert_matches_oracle(restored)
        assert restored.adjacency()[0] == live.adjacency()[0]
        np.testing.assert_array_equal(restored.adjacency()[1], live.adjacency()[1])

    @pytest.mark.parametrize("schema", [1, 2])
    def test_legacy_schema_payloads_restore(self, schema):
        # schemas 1 and 2 stored C2 as a dense n x n matrix; schema 1
        # also predates the recorded propagation model
        payload = json.loads(_DICT_MODE_SNAPSHOT)
        n = len(payload["nodes"])
        c2 = [[0] * n for _ in range(n)]
        for u, v, count in payload["c2"]:
            c2[u][v] = count
        payload.update(schema=schema, c2=c2)
        if schema == 1:
            del payload["propagation"]
        restored = AdHocDigraph.restore(payload)
        assert_matches_oracle(restored)
        assert json.dumps(restored.snapshot()) == _DICT_MODE_SNAPSHOT


#: A delta written by the code that still kept a slot grid: from
#: :func:`_compat_graph` (version 9) through a join, a power raise past
#: four times the cell (which raised ``cell`` to 120) and a move.
_GRID_ERA_DELTA = (
    '{"schema": 1, "kind": "digraph-delta", "base_version": 9, "version": 12, '
    '"n": 6, "cell": 120.0, "slots": [[0, 1, 10.0, 10.0, 120.0, [1, 2, 3, 4, 5], '
    '[2]], [4, 5, 60.0, 22.0, 28.0, [3, 5], [0, 3]], [5, 7, 40.0, 30.0, 20.0, '
    '[2, 3], [0, 2, 3, 4]]]}'
)


class TestRecordedCell:
    """The cell size a snapshot (``grid_cell_size``) and a delta
    (``cell``) record: a format field with no index behind it."""

    @staticmethod
    def _cells(g, base=0):
        return g.snapshot()["grid_cell_size"], g.delta_snapshot(base)["cell"]

    def test_first_join_range_sets_the_cell(self):
        g = AdHocDigraph()
        assert self._cells(g) == (None, None)
        g.add_node(NodeConfig(1, 10.0, 10.0, 25.0))
        g.add_node(NodeConfig(2, 30.0, 10.0, 90.0))  # under 4 x 25: kept
        g.add_node(NodeConfig(3, 50.0, 10.0, 5.0))
        assert self._cells(g) == (25.0, 25.0)

    def test_power_raise_past_four_times_raises_the_cell(self):
        g = AdHocDigraph()
        for i in range(1, 10):
            g.add_node(NodeConfig(i, 10.0 * i, 5.0, 4.0))
        g.set_range(3, 16.0)  # exactly 4 x the cell: kept
        assert self._cells(g) == (4.0, 4.0)
        g.set_range(3, 80.0)
        assert self._cells(g) == (80.0, 80.0)
        assert g.out_neighbors(3) == [1, 2, 4, 5, 6, 7, 8, 9]
        assert_matches_oracle(g)
        g.add_node(NodeConfig(10, 0.0, 0.0, 400.0))  # a join raises it too
        assert self._cells(g) == (400.0, 400.0)

    def test_no_cell_without_a_disc_bounded_model(self):
        class Unbounded(FreeSpacePropagation):
            disc_bounded = False

        g = AdHocDigraph(Unbounded())
        g.add_node(NodeConfig(1, 10.0, 10.0, 25.0))
        g.set_range(1, 500.0)
        assert self._cells(g) == (None, None)

    def test_explicit_cell_from_a_snapshot_round_trips(self):
        payload = json.loads(_DICT_MODE_SNAPSHOT)
        payload["explicit_cell"] = payload["grid_cell_size"] = 1.0
        text = json.dumps(payload)
        g = AdHocDigraph.restore(json.loads(text))
        assert json.dumps(g.snapshot()) == text
        g.set_range(1, 40.0)  # past 4 x 1.0, but the explicit cell wins
        g.add_node(NodeConfig(7, 40.0, 30.0, 20.0))
        assert self._cells(g, base=9) == (1.0, 1.0)
        assert g.snapshot()["explicit_cell"] == 1.0
        # an empty graph takes the explicit cell at its first join
        empty = AdHocDigraph.restore({**AdHocDigraph().snapshot(), "explicit_cell": 2.0})
        empty.add_node(NodeConfig(1, 0.0, 0.0, 25.0))
        assert self._cells(empty) == (2.0, 2.0)

    def test_grid_era_delta_applies_cleanly(self):
        g = AdHocDigraph.restore(json.loads(_DICT_MODE_SNAPSHOT))
        g.apply_delta(json.loads(_GRID_ERA_DELTA))
        assert g.version == 12
        assert_matches_oracle(g)
        live = _compat_graph()
        live.add_node(NodeConfig(7, 40.0, 30.0, 20.0))
        live.set_range(1, 120.0)
        live.move_node(5, 60.0, 22.0)
        assert g.snapshot() == live.snapshot()
        assert json.dumps(live.delta_snapshot(9)) == _GRID_ERA_DELTA
        assert self._cells(live, base=9) == (120.0, 120.0)
