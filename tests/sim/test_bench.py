"""The component benchmark harness and its JSON artifact."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.events.base import JoinEvent, MoveEvent
from repro.sim.bench import (
    drive_event_loop,
    drive_event_rounds,
    write_bench_json,
)
from repro.sim.random_networks import sample_configs
from repro.topology.digraph import AdHocDigraph


class TestDrive:
    def test_drive_runs_all_modes(self):
        events = [JoinEvent(c) for c in sample_configs(15, np.random.default_rng(0))]
        assert drive_event_loop(events, mode="array") > 0.0
        assert drive_event_loop(events, mode="sparse") > 0.0

    def test_unknown_mode_rejected(self):
        events = [JoinEvent(c) for c in sample_configs(5, np.random.default_rng(0))]
        for mode in ("bogus", "grid", "dense", "sparse-scalar"):  # retired modes too
            with pytest.raises(ValueError):
                drive_event_loop(events, mode=mode)
            with pytest.raises(ValueError):
                drive_event_rounds([events], mode=mode)

    def test_pinned_core_holds_for_the_block_only(self, monkeypatch):
        from repro.sim.bench import _pinned_core
        from repro.topology import digraph

        monkeypatch.setattr(digraph, "_SPARSE_AUTO_MIN", 10)
        configs = sample_configs(12, np.random.default_rng(0))
        with _pinned_core("array"):
            pinned = AdHocDigraph()
            pinned.bulk_join(configs)  # past the threshold, still on the array core
        with _pinned_core("sparse"):
            assert AdHocDigraph().core == "sparse"  # from construction on
        assert digraph._SPARSE_AUTO_MIN == 10
        assert pinned.core == "array"
        unpinned = AdHocDigraph()
        unpinned.bulk_join(configs)
        assert unpinned.core == "sparse"

    def test_setup_events_are_untimed_but_applied(self):
        configs = sample_configs(12, np.random.default_rng(0))
        setup = [JoinEvent(c) for c in configs]
        moves = [MoveEvent(c.node_id, c.x + 1.0, c.y) for c in configs[:4]]
        assert drive_event_loop(moves, mode="sparse", setup=setup) > 0.0

    def test_drive_rounds(self):
        configs = sample_configs(12, np.random.default_rng(0))
        setup = [JoinEvent(c) for c in configs]
        rounds = [
            [MoveEvent(c.node_id, c.x + dx, c.y) for c in configs[:5]]
            for dx in (1.0, 2.0, 3.0)
        ]
        assert drive_event_rounds(rounds, mode="sparse", setup=setup) > 0.0
        assert drive_event_rounds(rounds, mode="array", setup=setup) > 0.0


class TestLargeNBench:
    def test_rejects_sub_scale_n(self):
        from repro.sim.bench import run_large_n_bench

        # the real n>=2000 measurement runs in CI's smoke-bench and
        # sparse-core jobs; the tier-1 suite only pins the guard rails
        with pytest.raises(ConfigurationError):
            run_large_n_bench(n=500)
        with pytest.raises(ConfigurationError):
            run_large_n_bench(runs=0)

    @pytest.fixture(scope="class")
    def entries(self):
        from repro.sim.bench import run_large_n_bench

        # the floor of the large-n regime: big enough to exercise every
        # leg (array, bulk sparse, rounds) in seconds
        return run_large_n_bench(n=2000, runs=1, seed=5, max_mem_mb=256.0)

    def test_labels_carry_the_node_count_off_the_canonical_point(self, entries):
        # the regression gate keys on (scenario, mode): only the
        # canonical N=10^4 point may use the bare labels
        assert {e["scenario"] for e in entries} == {"large-join-2000", "large-rounds-2000"}
        assert all(e["n"] == 2000 for e in entries)

    def test_all_legs_and_gated_ratios_present(self, entries):
        assert [e["mode"] for e in entries] == ["array", "sparse", "sparse-rounds"]
        assert entries[1]["speedup_vs_array"] > 0
        assert entries[2]["round_batch_speedup"] > 0
        assert all(e["peak_mem_mb"] > 0 for e in entries)

    def test_json_written(self, entries, tmp_path):
        path = write_bench_json(entries, tmp_path / "BENCH_eventloop.json")
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(entries))  # round-trips losslessly

    def test_comparison_legs_drop_beyond_their_ceilings(self, monkeypatch):
        import repro.sim.bench as bench

        # above the array ceiling (N=10^5 regime) only the bulk sparse
        # legs run, and the ratio field vanishes with its leg
        monkeypatch.setattr(bench, "_ARRAY_MAX_LARGE_N", 0)
        entries = bench.run_large_n_bench(n=2000, runs=1, seed=5, max_mem_mb=None)
        assert [e["mode"] for e in entries] == ["sparse", "sparse-rounds"]
        assert "speedup_vs_array" not in entries[0]

    def test_memory_ceiling_enforced(self, monkeypatch):
        import repro.sim.bench as bench

        monkeypatch.setattr(bench, "_ARRAY_MAX_LARGE_N", 0)
        with pytest.raises(ConfigurationError, match="ceiling"):
            bench.run_large_n_bench(n=2000, runs=1, seed=5, max_mem_mb=0.001)


class TestCheckpointBench:
    # the canonical N=10^4 point runs in CI's smoke-bench job (with its
    # ckpt_delta_speedup floor and ckpt_bytes_ratio ceiling); tier-1
    # pins the entry shape and the byte accounting on a tiny trace
    @pytest.fixture(scope="class")
    def entries(self):
        from repro.sim.bench import run_checkpoint_bench

        return run_checkpoint_bench(n=120, runs=1, rounds=2, seed=5)

    @pytest.fixture(scope="class")
    def trace(self):
        from repro.sim.bench import _substep_rounds

        joins = [JoinEvent(c) for c in sample_configs(60, np.random.default_rng(5))]
        template = AdHocDigraph()
        template.apply_round(joins)
        return template, _substep_rounds(joins, 100.0, seed=6, rounds=2)

    def test_labels_carry_the_node_count_off_the_canonical_point(self, entries):
        assert [e["mode"] for e in entries] == ["copy", "full", "replay", "delta"]
        assert {e["scenario"] for e in entries} == {"large-ckpt-120"}
        for e in entries:
            assert e["n"] == 120 and e["events"] == 2  # one checkpoint per round
            assert e["wall_seconds"] > 0 and e["peak_mem_mb"] > 0

    def test_delta_entry_carries_the_gated_fields(self, entries):
        *rivals, delta = entries
        assert delta["ckpt_delta_speedup"] > 0
        assert delta["ckpt_bytes_ratio"] == delta["ckpt_delta_bytes"] / delta["ckpt_full_bytes"]
        assert not any("ckpt_delta_speedup" in e for e in rivals)

    def test_delta_bytes_stay_a_fraction_of_the_full_snapshot(self, entries):
        # the O(changes) contract CI gates at N=10^4 holds at any scale
        assert entries[-1]["ckpt_bytes_ratio"] <= 0.2

    @pytest.mark.parametrize("kwargs", [{"runs": 0}, {"rounds": 1}])
    def test_bad_args_rejected(self, kwargs):
        from repro.sim.bench import run_checkpoint_bench

        with pytest.raises(ConfigurationError):
            run_checkpoint_bench(n=120, **kwargs)

    @pytest.mark.parametrize(
        ("mode", "serializes"),
        [("copy", False), ("full", True), ("replay", False), ("delta", True)],
    )
    def test_only_serializing_modes_count_bytes(self, trace, mode, serializes):
        from repro.sim.bench import _drive_checkpoints

        template, rounds = trace
        version = template.version
        wall, nbytes = _drive_checkpoints(mode, template, rounds)
        assert wall > 0.0
        assert (nbytes > 0) is serializes
        assert template.version == version  # the producer works on a copy


class TestObsOverheadBench:
    def test_default_n_is_the_ci_point(self):
        from repro.sim.bench import run_obs_overhead_bench

        # every CI invocation measures N=120 through the default
        entries = run_obs_overhead_bench(runs=1, inner=1)
        assert [(e["mode"], e["n"]) for e in entries] == [("off", 120), ("on", 120)]

    @pytest.mark.parametrize("kwargs", [{"runs": 0}, {"inner": 0}])
    def test_bad_args_rejected(self, kwargs):
        from repro.sim.bench import run_obs_overhead_bench

        with pytest.raises(ValueError):
            run_obs_overhead_bench(n=10, **kwargs)
