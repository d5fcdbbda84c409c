"""Versioned delta snapshots and copy-on-write forks of the digraph.

The O(changes) checkpoint contract: a delta cut between two versions,
serialized through JSON and applied to a graph sitting at the base
version, lands on byte-identical state — under chained composition,
through shrink/grow churn, and from a snapshot and delta written by
the retired sparse core.  Forks share state copy-on-write, so
mutations on either side never leak across.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.events.base import JoinEvent, LeaveEvent, MoveEvent, PowerChangeEvent
from repro.geometry.obstacles import RectObstacle
from repro.sim.random_networks import sample_configs
from repro.topology.digraph import AdHocDigraph
from repro.topology.node import NodeConfig
from repro.topology.propagation import ObstructedPropagation
from tests.topology.oracles import assert_matches_oracle

# run the test once per edge kernel (see tests/conftest.py::use_kernel)
per_kernel = pytest.mark.usefixtures("each_kernel")


#: A snapshot of a 60-node graph after four rounds of mixed churn
#: (leaves, joins, power changes, moves), one delta cut against it and
#: the snapshot after that delta, all written by the sparse conflict
#: core before it was removed.
_SPARSE_CORE_FIXTURE = Path(__file__).parent / "fixtures" / "sparse_core_snapshot.json"


def canonical(graph: AdHocDigraph) -> str:
    return json.dumps(graph.snapshot(), sort_keys=True)


def churn_round(graph, rng, live, next_id, *, leaves=2, joins=2, moves=5):
    """One mixed shrink/grow/move round; returns the updated id pool."""
    for _ in range(leaves):
        nid = int(rng.choice(live))
        live.remove(nid)
        graph.apply_event(LeaveEvent(nid))
    for cfg in sample_configs(joins, rng):
        cfg = replace(cfg, node_id=next_id)
        next_id += 1
        graph.apply_event(JoinEvent(cfg))
        live.append(cfg.node_id)
    for i, nid in enumerate(rng.choice(live, size=moves, replace=False).tolist()):
        if i == 0:
            graph.apply_event(PowerChangeEvent(int(nid), float(rng.uniform(15, 35))))
        else:
            graph.apply_event(
                MoveEvent(int(nid), float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            )
    return next_id


class TestDeltaRoundTrips:
    @per_kernel
    def test_single_delta_is_byte_identical(self):
        rng = np.random.default_rng(5)
        g = AdHocDigraph()
        for cfg in sample_configs(30, rng):
            g.apply_event(JoinEvent(cfg))
        shadow = g.copy()
        base = g.version
        churn_round(g, rng, [c for c in g.node_ids()], max(g.node_ids()) + 1)
        blob = json.dumps(g.delta_snapshot(base), separators=(",", ":"))
        shadow.apply_delta(json.loads(blob))
        assert canonical(shadow) == canonical(g)
        assert_matches_oracle(shadow)

    @per_kernel
    def test_delta_grows_the_population_past_capacity(self):
        # the applier starts with room for 16 slots; the delta brings 45
        rng = np.random.default_rng(9)
        g = AdHocDigraph()
        cfgs = sample_configs(45, rng)
        for cfg in cfgs[:5]:
            g.apply_event(JoinEvent(cfg))
        shadow = AdHocDigraph.restore(g.snapshot())
        base = g.version
        for cfg in cfgs[5:]:
            g.apply_event(JoinEvent(cfg))
        shadow.apply_delta(json.loads(json.dumps(g.delta_snapshot(base))))
        assert canonical(shadow) == canonical(g)
        assert_matches_oracle(shadow)

    @per_kernel
    def test_chained_deltas_compose(self):
        # the checkpoint-chain lifecycle: every round's delta is cut
        # against the previous round's version and applied in order
        rng = np.random.default_rng(17)
        g = AdHocDigraph()
        cfgs = sample_configs(40, rng)
        for cfg in cfgs:
            g.apply_event(JoinEvent(cfg))
        shadow = g.copy()
        live = [c.node_id for c in cfgs]
        next_id = max(live) + 1
        base = g.version
        for step in range(6):
            next_id = churn_round(g, rng, live, next_id)
            blob = json.dumps(g.delta_snapshot(base), separators=(",", ":"))
            shadow.apply_delta(json.loads(blob))
            base = g.version
            assert canonical(shadow) == canonical(g), f"diverged at round {step}"
            assert_matches_oracle(shadow)

    def test_chained_deltas_compose_under_obstruction(self):
        # the shadow's links must still respect line of sight: the
        # oracle re-derives them with the walls in place
        walls = (RectObstacle(20.0, 30.0, 35.0, 80.0), RectObstacle(60.0, 10.0, 70.0, 55.0))
        rng = np.random.default_rng(23)
        g = AdHocDigraph(ObstructedPropagation(walls))
        cfgs = sample_configs(30, rng)
        for cfg in cfgs:
            g.apply_event(JoinEvent(cfg))
        shadow = g.copy()
        live = [c.node_id for c in cfgs]
        next_id = max(live) + 1
        for step in range(4):
            base = g.version
            next_id = churn_round(g, rng, live, next_id)
            shadow.apply_delta(json.loads(json.dumps(g.delta_snapshot(base))))
            assert canonical(shadow) == canonical(g), f"diverged at round {step}"
            assert_matches_oracle(shadow)

    def test_chained_churn_deltas_match_a_fresh_restore(self):
        # conflict queries after chained churn deltas at a few hundred
        # nodes must agree with a from-scratch restore of the same
        # snapshot
        rng = np.random.default_rng(23)
        cfgs = sample_configs(300, rng, area=(160.0, 160.0))
        g = AdHocDigraph()
        for cfg in cfgs:
            g.apply_event(JoinEvent(cfg))
        shadow = g.copy()
        live = [c.node_id for c in cfgs]
        next_id = max(live) + 1
        base = g.version
        for _ in range(3):
            next_id = churn_round(g, rng, live, next_id, leaves=6, joins=4, moves=10)
            shadow.apply_delta(g.delta_snapshot(base))
            base = g.version
        assert canonical(shadow) == canonical(g)
        fresh = AdHocDigraph.restore(json.loads(canonical(g)))
        for nid in live[:25]:
            assert set(shadow.conflict_neighbor_ids(nid)) == set(
                fresh.conflict_neighbor_ids(nid)
            )

    def test_delta_bytes_stay_a_fraction_of_the_full_snapshot(self):
        # the O(changes) contract: a round that moves 16 of 1000 nodes
        # serializes a small fraction of what a full snapshot does
        n = 1000
        side = 100.0 * math.sqrt(n / 120.0)  # the paper's node density
        rng = np.random.default_rng(5)
        g = AdHocDigraph()
        for cfg in sample_configs(n, rng, area=(side, side)):
            g.apply_event(JoinEvent(cfg))
        ids = g.node_ids()
        base = g.version
        delta_bytes = full_bytes = 0
        for _ in range(2):
            for nid in rng.choice(ids, size=16, replace=False).tolist():
                x, y = rng.uniform(0.0, side, size=2).tolist()
                g.apply_event(MoveEvent(int(nid), x, y))
            delta_bytes += len(json.dumps(g.delta_snapshot(base), separators=(",", ":")))
            full_bytes += len(json.dumps(g.snapshot(), separators=(",", ":")))
            base = g.version
        assert delta_bytes <= 0.2 * full_bytes

    @per_kernel
    def test_sparse_core_snapshot_and_delta_land_byte_identically(self):
        fixture = json.loads(_SPARSE_CORE_FIXTURE.read_text())
        g = AdHocDigraph.restore(fixture["snapshot"])
        assert json.dumps(g.snapshot()) == json.dumps(fixture["snapshot"])
        g.apply_delta(fixture["delta"])
        assert json.dumps(g.snapshot()) == json.dumps(fixture["after"])
        assert_matches_oracle(g)

    @per_kernel
    def test_empty_delta_advances_the_version_only(self):
        g = AdHocDigraph()
        for cfg in sample_configs(6, np.random.default_rng(1)):
            g.apply_event(JoinEvent(cfg))
        before = canonical(g)
        g.apply_delta(
            {
                "schema": 1,
                "kind": "digraph-delta",
                "base_version": g.version,
                "version": g.version + 3,
                "n": len(g.node_ids()),
                "cell": None,
                "slots": [],
            }
        )
        assert g.version == int(json.loads(before)["version"]) + 3
        after = json.loads(canonical(g))
        after["version"] = json.loads(before)["version"]
        assert json.dumps(after, sort_keys=True) == before


class TestDeltaValidation:
    def test_stale_base_rejected_naming_both_versions(self):
        rng = np.random.default_rng(3)
        g = AdHocDigraph()
        for cfg in sample_configs(10, rng):
            g.apply_event(JoinEvent(cfg))
        stale = g.copy()
        base = g.version
        g.apply_event(MoveEvent(int(g.node_ids()[0]), 5.0, 5.0))
        delta = g.delta_snapshot(base)
        stale.apply_event(MoveEvent(int(stale.node_ids()[1]), 9.0, 9.0))
        with pytest.raises(ConfigurationError) as err:
            stale.apply_delta(delta)
        assert str(base) in str(err.value)
        assert str(stale.version) in str(err.value)

    def test_non_delta_dict_rejected(self):
        g = AdHocDigraph()
        with pytest.raises(ConfigurationError, match="delta_snapshot"):
            g.apply_delta(g.snapshot())


@per_kernel
class TestCopyOnWriteFork:
    def test_child_mutations_never_leak_into_the_parent(self):
        rng = np.random.default_rng(9)
        g = AdHocDigraph()
        for cfg in sample_configs(20, rng):
            g.apply_event(JoinEvent(cfg))
        before = canonical(g)
        child = g.fork()
        child.apply_event(MoveEvent(int(child.node_ids()[0]), 1.0, 1.0))
        child.apply_event(LeaveEvent(int(child.node_ids()[-1])))
        assert canonical(g) == before

    def test_parent_mutations_never_leak_into_the_child(self):
        rng = np.random.default_rng(9)
        g = AdHocDigraph()
        for cfg in sample_configs(20, rng):
            g.apply_event(JoinEvent(cfg))
        child = g.fork()
        frozen = canonical(child)
        g.apply_event(MoveEvent(int(g.node_ids()[0]), 2.0, 2.0))
        g.apply_event(PowerChangeEvent(int(g.node_ids()[1]), 30.0))
        assert canonical(child) == frozen

    @pytest.mark.parametrize("writer", ("parent", "child"))
    @pytest.mark.parametrize(
        "op", ("insert", "refresh", "refresh_out", "set_rows", "unlink", "rename")
    )
    def test_array_core_writes_stay_on_their_side(self, op, writer):
        # the counter kernels write through raw pointers: every array
        # core mutation must privatize the shared blocks first
        g = AdHocDigraph()
        for cfg in sample_configs(20, np.random.default_rng(13)):
            g.apply_event(JoinEvent(cfg))
        child = g.fork()
        side, other = (g, child) if writer == "parent" else (child, g)
        adj, c2 = other._core.adj.tobytes(), other._core.c2.tobytes()
        core = side._core
        assert core.adj is other._core.adj  # still shared before the write
        if op == "insert":
            side.add_node(NodeConfig(999, 50.0, 50.0, 40.0))  # 21 slots of 32
        elif op == "refresh":
            side.move_node(side.node_ids()[3], 50.0, 50.0)
        elif op == "refresh_out":
            side.set_range(side.node_ids()[3], 45.0)
        elif op == "set_rows":
            core.set_rows(3, np.arange(4, 12), np.arange(0, 3))
        elif op == "unlink":
            core.unlink(3)
        else:
            core.rename(19, 3)
        assert core.adj is not other._core.adj
        assert (core.adj.tobytes(), core.c2.tobytes()) != (adj, c2)
        assert other._core.adj.tobytes() == adj
        assert other._core.c2.tobytes() == c2

    def test_counter_kernels_refuse_shared_or_malformed_blocks(self):
        g = AdHocDigraph()
        for cfg in sample_configs(10, np.random.default_rng(2)):
            g.apply_event(JoinEvent(cfg))
        child = g.fork()
        core = child._core
        row = np.zeros(10, dtype=bool)
        with pytest.raises(RuntimeError, match="_own"):
            core._apply_row(0, row)
        core._own()
        with pytest.raises(ValueError, match="10 slots"):
            core._apply_col(0, np.zeros(9, dtype=bool))
        with pytest.raises(ValueError, match="10 slots"):
            core._apply_row(0, np.zeros(20, dtype=bool)[::2])
        with pytest.raises(ValueError, match="outside"):
            core._apply_row(10, row)
        core.c2 = core.c2.astype(np.int64)
        with pytest.raises(ValueError, match="bool/int32"):
            core._apply_row(0, row)

    def test_fork_then_diverge_then_delta_each_side(self):
        # both sides of a fork stay valid delta producers: deltas cut
        # on parent and child apply cleanly to pre-fork copies
        rng = np.random.default_rng(31)
        g = AdHocDigraph()
        for cfg in sample_configs(25, rng):
            g.apply_event(JoinEvent(cfg))
        base_copy = g.copy()
        base_v = g.version
        child = g.fork()
        g.apply_event(MoveEvent(int(g.node_ids()[0]), 3.0, 3.0))
        child.apply_event(MoveEvent(int(child.node_ids()[1]), 7.0, 7.0))
        for side in (g, child):
            follower = base_copy.copy()
            follower.apply_delta(json.loads(json.dumps(side.delta_snapshot(base_v))))
            assert canonical(follower) == canonical(side)
