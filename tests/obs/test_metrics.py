"""Registry correctness: counters and merging."""

from __future__ import annotations

from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry, merge_snapshots


def test_counters_accumulate():
    reg = MetricsRegistry()
    reg.inc("a")
    reg.inc("a", 4)
    reg.inc("b", 0.5)
    assert reg.counters == {"a": 5, "b": 0.5}


def test_snapshot_is_a_copy():
    reg = MetricsRegistry()
    reg.inc("a")
    snap = reg.snapshot()
    reg.inc("a")
    assert snap["counters"]["a"] == 1
    assert reg.counters["a"] == 2


def test_clear_resets_everything():
    reg = MetricsRegistry()
    reg.inc("a")
    reg.clear()
    assert reg.snapshot() == {"counters": {}}


def test_merge_snapshots_sums_counters():
    a = MetricsRegistry()
    a.inc("c", 2)
    b = MetricsRegistry()
    b.inc("c", 3)
    b.inc("d")
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged == {"counters": {"c": 5, "d": 1}}


def test_merge_snapshots_tolerates_empty_and_partial():
    assert merge_snapshots([]) == {"counters": {}}
    merged = merge_snapshots([{"counters": {"x": 1}}, {}])
    assert merged["counters"] == {"x": 1}


def test_module_helpers_are_noops_while_disabled():
    assert metrics.ENABLED is False
    before = metrics.REGISTRY.snapshot()
    metrics.inc("core.memo.hit", 100)
    assert metrics.REGISTRY.snapshot() == before
