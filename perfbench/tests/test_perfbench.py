"""Self-tests of the benchmark at smoke sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from perfbench import run
from perfbench.layers import LayerClock, LogHistogram, instrumented, layer_bindings
from perfbench.reference import load_reference, point_digests, save_reference
from perfbench.workloads import SMOKE_WORKLOADS, WORKLOADS, run_pass

MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = list(WORKLOADS)


@pytest.fixture(autouse=True)
def _few_setup_probes(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 2)


def _smoke(name, trace, references=None, seed=3):
    return run.measure(name, seed, 0.0, trace, smoke=True, references=references)


def test_manifest_follows_the_contract():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in MANIFEST["workloads"]] == NAMES
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    seen = set()
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert name.match(metric["name"]) and metric["name"] not in seen
        seen.add(metric["name"])
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])
    assert len(json.dumps(MANIFEST)) < 64 * 1024


@pytest.mark.parametrize("name", NAMES)
def test_smoke_emits_every_named_metric_with_its_unit(name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = _smoke(name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        want = {m["name"]: m["unit"] for m in MANIFEST[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
        if section == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_self_times_and_unattributed_sum_to_the_traced_wall(name):
    result = _smoke(name, True)["metrics"]
    metrics = {k: v["value"] for k, v in result.items()}
    parts = run.self_time_metrics({k: (v["value"], v["unit"]) for k, v in result.items()})
    assert "unattributed.s" not in parts and "lane.bbb.self_s" in parts
    total = sum(metrics[p] for p in parts) + metrics["unattributed.s"]
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["unattributed.s"] >= 0


def test_store_workload_resumes_from_cache_with_identical_series(tmp_path):
    results = run_pass(SMOKE_WORKLOADS["paired-store"], 5, tmp_path)
    resume = [r for r in results if r.leg == "resume"]
    assert resume and all(r.computed == 0 for r in resume)
    by_label = {}
    for r in results:
        by_label.setdefault(r.sweep.scenario, []).append(point_digests(r.sweep.scenario, r.series))
    for digests in by_label.values():
        assert len(digests) == 4 and all(d == digests[0] for d in digests)


def _record_smoke_reference(tmp_path, name, seed):
    results = run_pass(SMOKE_WORKLOADS[name], seed, tmp_path / "work")
    digests = {}
    for r in results:
        digests.update(point_digests(r.sweep.scenario, r.series))
    save_reference(tmp_path / "refs" / f"{name}.json", name, seed, digests)
    return digests


def test_matching_reference_passes_and_a_changed_digest_fails(tmp_path):
    digests = _record_smoke_reference(tmp_path, "paper-figs", 3)
    refs = tmp_path / "refs"
    assert _smoke("paper-figs", False, refs)["failed"] == 0

    path = refs / "paper-figs.json"
    doc = json.loads(path.read_text())
    point = sorted(digests)[0]
    doc["seeds"]["3"][point] = "0" * 16
    path.write_text(json.dumps(doc))
    result = _smoke("paper-figs", False, refs)
    assert not result["correct"]
    passes = result["attempted"] // len(digests)
    assert result["failed"] == passes  # the one point, once per pass


@pytest.mark.parametrize("content", ["{not json", '{"format": 1, "seeds": {"3": [1, 2]}}'])
def test_corrupt_reference_counts_as_failed_points(tmp_path, content):
    refs = tmp_path / "refs"
    refs.mkdir()
    (refs / "churn-cp.json").write_text(content)
    assert load_reference(refs / "churn-cp.json", 3)[1].startswith("corrupt")
    result = _smoke("churn-cp", False, refs)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_committed_references_cover_the_default_seed():
    for name in NAMES:
        digests, status = load_reference(run.REFERENCES / f"{name}.json", 2001)
        assert status == "ok" and digests


def test_log_histogram_quantiles_within_one_bucket():
    hist = LogHistogram()
    for i in range(1, 1001):
        hist.add(i * 1e-6)  # 1 µs .. 1 ms, uniform
    step = 2 ** (1 / 8)
    assert 500e-6 / step <= hist.quantile(0.5) <= 500e-6 * step
    assert 990e-6 / step <= hist.quantile(0.99) <= 990e-6 * step
    assert LogHistogram().quantile(0.5) == 0.0


def test_instrumentation_attributes_self_time_and_restores_bindings():
    before = {
        (id(owner), attr): vars(owner).get(attr)
        for bindings in layer_bindings().values()
        for owner, attr in bindings
    }
    clock = LayerClock()
    with instrumented(clock):
        import repro.coloring.bbb as bbb
        from repro.topology.digraph import AdHocDigraph
        from repro.topology.node import NodeConfig
        from repro.events.base import JoinEvent

        graph = AdHocDigraph()
        for i, (x, y) in enumerate([(0, 0), (5, 0), (10, 0)]):
            graph.apply_event(JoinEvent(NodeConfig(i, x, y, 20.0)))
        bbb.bbb_coloring(graph)
    after = {
        (id(owner), attr): vars(owner).get(attr)
        for bindings in layer_bindings().values()
        for owner, attr in bindings
    }
    assert after == before
    assert clock.stats["topology.apply"].calls == 3
    assert clock.stats["coloring.dsatur"].calls == 1
    assert clock.stats["topology.query"].calls == 1
    total = sum(s.self_s for s in clock.stats.values())
    assert total == pytest.approx(clock.attributed, rel=1e-12)
