"""The event-loop benchmark harness and its JSON artifact."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.events.base import JoinEvent, MoveEvent
from repro.sim.bench import (
    drive_event_loop,
    drive_event_rounds,
    run_event_loop_bench,
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


class TestBenchHarness:
    @pytest.fixture(scope="class")
    def entries(self):
        return run_event_loop_bench(n=24, runs=1, seed=5)

    def test_entry_schema(self, entries):
        assert len(entries) == 4  # 2 traces x 2 modes
        for e in entries:
            assert {"scenario", "n", "mode", "events", "wall_seconds", "events_per_sec"} <= set(e)
            assert e["events_per_sec"] > 0
            assert e["wall_seconds"] > 0
            assert e["peak_mem_mb"] > 0  # every entry tracks its memory

    def test_traces_and_modes_present(self, entries):
        assert {e["scenario"] for e in entries} == {"fig10-join", "random-waypoint"}
        assert {e["mode"] for e in entries} == {"array", "sparse"}

    def test_small_n_sparse_entries_publish_their_array_ratio(self, entries):
        # the honest small-N record: the sparse core is slower than the
        # array core here (ratio typically < 1), which is exactly why
        # auto-promotion waits for N >= 4096 — the field must be present
        # either way so the regression is visible in the artifact
        sparse = [e for e in entries if e["mode"] == "sparse"]
        assert len(sparse) == 2
        assert all("speedup_vs_array" in e and e["speedup_vs_array"] > 0 for e in sparse)

    def test_json_written(self, entries, tmp_path):
        path = write_bench_json(entries, tmp_path / "BENCH_eventloop.json")
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(entries))  # round-trips losslessly

    def test_bad_runs_rejected(self):
        with pytest.raises(ValueError):
            run_event_loop_bench(n=8, runs=0)


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


class TestWarmstartBench:
    @pytest.fixture(scope="class")
    def entries(self):
        from repro.sim.bench import run_warmstart_bench

        return run_warmstart_bench(n=20, runs=1, sweep_points=3, lanes=2, seed=5)

    def test_entry_schema(self, entries):
        assert [e["mode"] for e in entries] == ["cold", "warm"]
        for e in entries:
            assert e["scenario"] == "warmstart-delta-sweep"
            assert e["wall_seconds"] > 0 and e["events_per_sec"] > 0

    def test_both_modes_report_logical_events(self, entries):
        # same logical sweep either way, so events counts must match and
        # the events/sec ratio equals the recorded speedup
        assert entries[0]["events"] == entries[1]["events"]
        assert entries[1]["speedup_vs_cold"] > 0

    def test_bad_args_rejected(self):
        from repro.sim.bench import run_warmstart_bench

        with pytest.raises(ValueError):
            run_warmstart_bench(n=8, runs=0)
        with pytest.raises(ValueError):
            run_warmstart_bench(n=8, sweep_points=0)


class TestAdaptiveBench:
    @pytest.fixture(scope="class")
    def entries(self):
        from repro.sim.bench import run_adaptive_bench

        return run_adaptive_bench(runs=1, fixed_runs=8, seed=5)

    def test_entry_schema(self, entries):
        assert [e["mode"] for e in entries] == ["fixed", "adaptive"]
        for e in entries:
            assert e["scenario"] == "adaptive-sweep"
            assert e["wall_seconds"] > 0 and e["events_per_sec"] > 0

    def test_adaptive_never_exceeds_the_fixed_budget(self, entries):
        fixed, adaptive = entries
        assert fixed["events"] == 8 * fixed["sweep_points"]
        assert adaptive["events"] <= fixed["events"]
        assert adaptive["run_savings_vs_fixed"] == fixed["events"] / adaptive["events"]
        assert adaptive["run_savings_vs_fixed"] >= 1.0

    def test_workload_is_noisy_enough_to_exercise_the_growth_loop(self, entries):
        # if every point converged at the 2-run starting budget the gated
        # ratio would be the constant fixed_runs/2, blind to controller
        # regressions — the pinned spec must force at least one extra pass
        _, adaptive = entries
        assert adaptive["events"] > 2 * adaptive["sweep_points"]

    def test_run_counts_are_seed_deterministic(self, entries):
        from repro.sim.bench import run_adaptive_bench

        again = run_adaptive_bench(runs=1, fixed_runs=8, seed=5)
        assert [e["events"] for e in again] == [e["events"] for e in entries]

    def test_bad_args_rejected(self):
        from repro.sim.bench import run_adaptive_bench

        with pytest.raises(ValueError):
            run_adaptive_bench(runs=0)
        with pytest.raises(ValueError):
            run_adaptive_bench(fixed_runs=1)
