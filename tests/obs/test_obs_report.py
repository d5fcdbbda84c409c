"""Report aggregation, completeness checking, Chrome export."""

from __future__ import annotations

import json

from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.report import check_trace, render_report, summarize


def _span(name, sid, *, parent=None, ts=100.0, dur=1.0, pid=1, args=None):
    return {
        "type": "span",
        "id": sid,
        "parent": parent,
        "name": name,
        "cat": "",
        "ts": ts,
        "dur": dur,
        "args": args or {},
        "pid": pid,
    }


def _sweep_records():
    return [
        {"type": "meta", "pid": 1, "wall": 100.0, "argv": ["x"]},
        _span("sweep.execute", "1:1", ts=100.0, dur=3.0, args={"pending": 2}),
        _span("task.compute", "1:2", parent="1:1", ts=100.5, dur=1.0),
        _span("task.compute", "1:3", parent="1:1", ts=101.5, dur=1.0),
        {"type": "event", "name": "queue.claim", "cat": "queue", "ts": 100.4,
         "parent": "1:1", "args": {"key": "k", "owner": "w1"}, "pid": 1},
        {"type": "metrics", "ts": 103.0, "pid": 1,
         "data": {"counters": {"core.memo.hit": 8, "core.memo.miss": 2,
                               "timeline.rounds.saved": 3, "timeline.rounds.replayed": 1}}},
    ]


def test_summarize_self_time_subtracts_children():
    data = summarize(_sweep_records())
    execute = data["spans"]["sweep.execute"]
    assert execute["total"] == 3.0
    assert execute["self"] == 1.0  # 3.0 minus two 1.0s children
    assert data["spans"]["task.compute"]["count"] == 2
    assert data["events"] == {"queue.claim": 1}
    assert data["metrics"]["counters"]["core.memo.hit"] == 8


def test_summarize_keeps_last_metrics_snapshot_per_pid():
    records = _sweep_records()
    records.append({"type": "metrics", "ts": 104.0, "pid": 1,
                    "data": {"counters": {"core.memo.hit": 10}}})
    data = summarize(records)
    assert data["metrics"]["counters"]["core.memo.hit"] == 10


def test_summarize_merges_metrics_across_pids():
    records = _sweep_records()
    records.append({"type": "metrics", "ts": 104.0, "pid": 2,
                    "data": {"counters": {"core.memo.hit": 5}}})
    data = summarize(records)
    assert data["metrics"]["counters"]["core.memo.hit"] == 13


def test_render_report_sections():
    out = render_report(_sweep_records())
    assert "top spans by self-time" in out
    assert "conflict memo" in out and "80.0%" in out
    assert "checkpoint replay savings" in out and "75.0%" in out
    assert "queue.claim" in out
    assert "(w1)" in out  # owner attribution in the worker timeline


def test_summarize_reads_old_snapshots_with_gauges_and_histograms():
    # traces written before the registry kept counters only carry
    # gauges/histograms sections; their counters still merge
    records = _sweep_records()
    records.append({"type": "metrics", "ts": 104.0, "pid": 2,
                    "data": {"counters": {"core.memo.hit": 5}, "gauges": {"g": 1.0},
                             "histograms": {"sample.window": {"count": 4, "total": 40.0,
                                                              "min": 5.0, "max": 20.0}}}})
    data = summarize(records)
    assert data["metrics"] == {"counters": {"core.memo.hit": 13, "core.memo.miss": 2,
                                            "timeline.rounds.saved": 3,
                                            "timeline.rounds.replayed": 1}}
    assert "conflict memo" in render_report(records)


def test_check_trace_accepts_complete_sweep():
    assert check_trace(_sweep_records()) == []


def test_check_trace_flags_missing_task_spans():
    records = [r for r in _sweep_records() if r.get("name") != "task.compute"]
    (problem,) = check_trace(records)
    assert "incomplete" in problem and "2 task group(s)" in problem


def test_check_trace_allows_at_least_once_recompute():
    records = _sweep_records()
    records.append(_span("task.compute", "1:9", ts=102.5, dur=0.5))
    assert check_trace(records) == []


def test_check_trace_flags_non_sweep_trace():
    (problem,) = check_trace([_span("task.compute", "1:1")])
    assert "no sweep.execute" in problem


def test_chrome_trace_shapes(tmp_path):
    doc = chrome_trace(_sweep_records())
    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    assert len(xs) == 3
    # timestamps are rebased microseconds
    assert min(e["ts"] for e in events if "ts" in e) == 0
    task = next(e for e in xs if e["name"] == "task.compute")
    assert task["dur"] == 1_000_000
    assert any(e["ph"] == "i" for e in events)
    assert any(e["ph"] == "C" for e in events)
    assert any(e["ph"] == "M" for e in events)

    out = tmp_path / "chrome.json"
    write_chrome_trace(_sweep_records(), out)
    assert json.loads(out.read_text())["traceEvents"]
