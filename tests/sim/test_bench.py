"""The component benchmark harness and its JSON artifact."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.events.base import JoinEvent, LeaveEvent, MoveEvent, PowerChangeEvent
from repro.sim.bench import drive_event_loop, run_obs_overhead_bench, write_bench_json
from repro.sim.random_networks import sample_configs


class TestDrive:
    def test_drive_applies_every_event_kind(self):
        configs = sample_configs(15, np.random.default_rng(0))
        events = [JoinEvent(c) for c in configs]
        events += [MoveEvent(c.node_id, c.x + 1.0, c.y) for c in configs[:4]]
        events += [PowerChangeEvent(configs[5].node_id, 40.0), LeaveEvent(configs[6].node_id)]
        assert drive_event_loop(events) > 0.0

    def test_traced_drive_reaches_a_recording_site(self, tmp_path):
        # the obs-overhead bench times this loop with tracing on and
        # off; a loop that records nothing compares two identical paths
        from repro import obs
        from repro.obs import metrics

        events = [JoinEvent(c) for c in sample_configs(20, np.random.default_rng(0))]
        obs.enable(tmp_path / "trace.jsonl")
        try:
            drive_event_loop(events)
            counters = metrics.REGISTRY.snapshot()["counters"]
        finally:
            obs.close()
        assert counters  # not the empty snapshot of a loop with no site
        assert counters["core.memo.miss"] == len(events)  # one memo fill per event


class TestObsOverheadBench:
    def test_default_n_is_the_ci_point(self):
        # every CI invocation measures N=120 through the default
        entries = run_obs_overhead_bench(runs=1, inner=1)
        assert [(e["mode"], e["n"]) for e in entries] == [("off", 120), ("on", 120)]
        assert entries[-1]["trace_on_vs_off"] > 0
        assert all(e["peak_mem_mb"] > 0 for e in entries)

    @pytest.mark.parametrize("kwargs", [{"runs": 0}, {"inner": 0}])
    def test_bad_args_rejected(self, kwargs):
        with pytest.raises(ValueError):
            run_obs_overhead_bench(n=10, **kwargs)

    def test_json_written(self, tmp_path):
        entries = run_obs_overhead_bench(n=10, runs=1, inner=1)
        path = write_bench_json(entries, tmp_path / "BENCH_eventloop.json")
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(entries))  # round-trips losslessly
