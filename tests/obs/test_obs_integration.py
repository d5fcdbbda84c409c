"""Observability against the real pipeline: identity, fan-out, overhead."""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro import obs
from repro.obs.report import check_trace
from repro.sim.registry import get_scenario
from repro.sim.sweep import run_sweep

#: A sweep small enough to run twice per test but big enough to plan
#: several task groups.
_SPEC = replace(
    get_scenario("paper-join"),
    n=16,
    strategies=("Minim",),
    sweep_values=(6.0, 8.0, 10.0),
)


def test_results_identical_with_tracing_on_and_off(tmp_path):
    baseline = run_sweep(_SPEC, runs=1, seed=42)
    obs.enable(tmp_path / "trace.jsonl")
    try:
        traced = run_sweep(_SPEC, runs=1, seed=42)
    finally:
        obs.close()
    assert traced.to_dict() == baseline.to_dict()


def test_traced_sweep_has_phase_and_task_spans(tmp_path):
    path = tmp_path / "trace.jsonl"
    obs.enable(path)
    try:
        run_sweep(_SPEC, runs=1, seed=42)
    finally:
        obs.close()
    records = obs.load_trace(path)
    names = [r["name"] for r in records if r["type"] == "span"]
    for phase in ("sweep.plan", "sweep.claim", "sweep.execute", "sweep.collect"):
        assert names.count(phase) == 1
    execute = next(
        r for r in records if r["type"] == "span" and r["name"] == "sweep.execute"
    )
    assert names.count("task.compute") == execute["args"]["pending"] > 0
    assert check_trace(records) == []
    snaps = [r for r in records if r["type"] == "metrics"]
    assert snaps, "close() must flush a final metrics snapshot"


def test_conflict_core_counters_reach_the_trace(tmp_path):
    # a power change reads the node's pre-event conflict set through
    # the graph's query memo, which counts its hits and misses
    spec = replace(get_scenario("fig11-power"), n=16, strategies=("Minim",), sweep_values=(2.0,))
    path = tmp_path / "trace.jsonl"
    obs.enable(path)
    try:
        run_sweep(spec, runs=1, seed=42)
    finally:
        obs.close()
    snaps = [r for r in obs.load_trace(path) if r["type"] == "metrics"]
    assert any(
        k.startswith("core.") for snap in snaps for k in snap["data"]["counters"]
    ), "conflict-core counters must reach the trace"


def test_process_executor_fanout_merges_cleanly(tmp_path):
    path = tmp_path / "trace.jsonl"
    obs.enable(path)
    try:
        traced = run_sweep(_SPEC, runs=1, seed=42, processes=2)
    finally:
        obs.close()
    assert traced.to_dict() == run_sweep(_SPEC, runs=1, seed=42).to_dict()
    records = obs.load_trace(path)
    assert check_trace(records) == []
    task_pids = {r["pid"] for r in records if r["type"] == "span" and r["name"] == "task.compute"}
    assert task_pids and os.getpid() not in task_pids, "pool children own the task spans"
    # every child pid wrote its own sidecar segment with its own metrics flush
    meta_pids = {r["pid"] for r in records if r["type"] == "meta"}
    assert task_pids <= meta_pids
    metric_pids = {r["pid"] for r in records if r["type"] == "metrics"}
    assert task_pids <= metric_pids


def test_worker_executor_emits_queue_events_and_heartbeats(tmp_path):
    from repro.sim.results import open_backend

    path = tmp_path / "trace.jsonl"
    backend = open_backend(tmp_path / "store", "json")
    obs.enable(path)
    try:
        run_sweep(_SPEC, runs=1, seed=42, store=backend, executor="worker")
    finally:
        obs.close()
    records = obs.load_trace(path)
    events = {r["name"] for r in records if r["type"] == "event"}
    assert {"queue.claim", "queue.lease_renew", "worker.heartbeat"} <= events
    assert backend.heartbeats(), "the drain must stamp at least one heartbeat"
    assert check_trace(records) == []


def test_obs_overhead_bench_entries():
    from repro.sim.bench import run_obs_overhead_bench

    entries = run_obs_overhead_bench(n=40, runs=1, inner=1, seed=7)
    assert [e["mode"] for e in entries] == ["off", "on"]
    for e in entries:
        assert e["scenario"] == "obs-overhead"
        assert e["events_per_sec"] > 0
        assert e["peak_mem_mb"] > 0
    assert entries[1]["trace_on_vs_off"] > 0
    assert not obs.enabled(), "the bench must leave tracing off"


def test_obs_overhead_bench_refuses_an_enabled_tracer(tmp_path):
    from repro.errors import ConfigurationError
    from repro.sim.bench import run_obs_overhead_bench

    obs.enable(tmp_path / "t.jsonl")
    try:
        with pytest.raises(ConfigurationError):
            run_obs_overhead_bench(n=10, runs=1, inner=1)
    finally:
        obs.close()


def test_report_command_round_trip(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "trace.jsonl"
    obs.enable(path)
    try:
        run_sweep(_SPEC, runs=1, seed=42)
    finally:
        obs.close()
    chrome = tmp_path / "chrome.json"
    assert main(["report", str(path), "--check", "--chrome", str(chrome)]) == 0
    out = capsys.readouterr().out
    assert "top spans by self-time" in out
    assert "task.compute" in out
    assert "trace check: ok" in out
    assert chrome.exists()


def test_chained_walk_report_shows_delta_bytes(tmp_path):
    from repro.obs.report import render_report
    from repro.sim.results import SqliteBackend

    spec = get_scenario("fig11-power")
    paired = replace(spec, n=12, strategies=("Minim",), sweep_values=spec.sweep_values[:2])
    path = tmp_path / "trace.jsonl"
    obs.enable(path)
    try:
        run_sweep(paired, runs=1, seed=42, store=SqliteBackend(tmp_path / "s.sqlite"))
    finally:
        obs.close()
    out = render_report(obs.load_trace(path))
    assert "delta links stored" in out and "delta bytes" in out
    assert "live state bytes" not in out


def test_report_command_missing_file(tmp_path, capsys):
    from repro.cli import main

    assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
    assert "no trace file" in capsys.readouterr().err


def test_cli_trace_flag_writes_and_closes(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "trace.jsonl"
    code = main(
        ["scenario", "paper-join", "--runs", "1", "--seed", "3", "--trace", str(path)]
    )
    assert code == 0
    assert not obs.enabled(), "main() must close tracing before returning"
    records = obs.load_trace(path)
    assert check_trace(records) == []
