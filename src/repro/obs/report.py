"""Aggregate a JSONL trace into a human summary (``minim-cdma report``).

The report answers the questions the raw trace drowns: where did the
wall-clock go (top spans by *self* time — duration minus child spans),
how effective were the conflict-core caches (hit/miss counter ratios),
how much replay did the checkpoint tree save, and what did each
process/worker actually do (per-worker timelines).  It also hosts the
CI completeness check: every task a sweep planned for execution must
have a closed ``task.compute`` span in the merged trace.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs import metrics as _met

__all__ = ["summarize", "render_report", "check_trace"]

# Counter-name pairs rendered as hit ratios: (label, hits, misses).
_RATIO_ROWS = (
    ("conflict memo", "core.memo.hit", "core.memo.miss"),
    ("store point reads", "store.point.hit", "store.point.miss"),
    ("store checkpoint reads", "store.ckpt.hit", "store.ckpt.miss"),
)


def _span_tree(spans: list[dict]) -> dict[str, float]:
    """Child-duration sums keyed by parent span id."""
    child_dur: dict[str, float] = {}
    for s in spans:
        parent = s.get("parent")
        if parent is not None:
            child_dur[parent] = child_dur.get(parent, 0.0) + s["dur"]
    return child_dur


def summarize(records: Iterable[dict]) -> dict:
    """Aggregate trace records into the report's data model."""
    records = list(records)
    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]
    metas = [r for r in records if r.get("type") == "meta"]
    last_metrics: dict[int, dict] = {}
    for r in records:
        if r.get("type") == "metrics":
            last_metrics[r.get("pid", 0)] = r.get("data", {})
    merged = _met.merge_snapshots(
        [last_metrics[pid] for pid in sorted(last_metrics)]
    )

    child_dur = _span_tree(spans)
    by_name: dict[str, dict] = {}
    for s in spans:
        row = by_name.setdefault(s["name"], {"count": 0, "total": 0.0, "self": 0.0})
        row["count"] += 1
        row["total"] += s["dur"]
        row["self"] += s["dur"] - child_dur.get(s["id"], 0.0)

    event_counts: dict[str, int] = {}
    for e in events:
        event_counts[e["name"]] = event_counts.get(e["name"], 0) + 1

    workers: dict[int, dict] = {}
    for s in spans:
        w = workers.setdefault(
            s.get("pid", 0), {"spans": 0, "events": 0, "busy": 0.0, "first": None, "last": None}
        )
        w["spans"] += 1
        w["busy"] += s["dur"] - child_dur.get(s["id"], 0.0)
        w["first"] = s["ts"] if w["first"] is None else min(w["first"], s["ts"])
        end = s["ts"] + s["dur"]
        w["last"] = end if w["last"] is None else max(w["last"], end)
    for e in events:
        w = workers.setdefault(
            e.get("pid", 0), {"spans": 0, "events": 0, "busy": 0.0, "first": None, "last": None}
        )
        w["events"] += 1
        w["first"] = e["ts"] if w["first"] is None else min(w["first"], e["ts"])
        w["last"] = e["ts"] if w["last"] is None else max(w["last"], e["ts"])
        owner = (e.get("args") or {}).get("owner")
        if owner:
            w["owner"] = owner

    return {
        "files": len(metas),
        "spans": by_name,
        "events": event_counts,
        "metrics": merged,
        "workers": workers,
    }


def _fmt_seconds(s: float) -> str:
    return f"{s * 1000:.1f}ms" if s < 1 else f"{s:.2f}s"


def render_report(records: Iterable[dict], *, top: int = 15) -> str:
    """The human-readable trace summary."""
    data = summarize(records)
    lines: list[str] = []
    spans = data["spans"]
    counters = data["metrics"]["counters"]
    hists = data["metrics"]["histograms"]

    lines.append(f"trace: {data['files']} process segment(s), "
                 f"{sum(r['count'] for r in spans.values())} spans, "
                 f"{sum(data['events'].values())} events")

    lines.append("")
    lines.append(f"top spans by self-time (top {top}):")
    lines.append(f"  {'name':<28} {'count':>6} {'total':>10} {'self':>10} {'avg':>10}")
    ranked = sorted(spans.items(), key=lambda kv: kv[1]["self"], reverse=True)
    for name, row in ranked[:top]:
        lines.append(
            f"  {name:<28} {row['count']:>6} {_fmt_seconds(row['total']):>10} "
            f"{_fmt_seconds(row['self']):>10} {_fmt_seconds(row['total'] / row['count']):>10}"
        )

    ratio_rows = []
    for label, hit_key, miss_key in _RATIO_ROWS:
        hits = counters.get(hit_key, 0)
        misses = counters.get(miss_key, 0)
        if hits or misses:
            total = hits + misses
            ratio_rows.append((label, hits, misses, hits / total))
    if ratio_rows:
        lines.append("")
        lines.append("cache-hit ratios:")
        lines.append(f"  {'cache':<24} {'hits':>12} {'misses':>12} {'ratio':>8}")
        for label, hits, misses, ratio in ratio_rows:
            lines.append(f"  {label:<24} {hits:>12.0f} {misses:>12.0f} {ratio:>7.1%}")

    saved = counters.get("timeline.rounds.saved", 0)
    replayed = counters.get("timeline.rounds.replayed", 0)
    if saved or replayed:
        lines.append("")
        lines.append("checkpoint replay savings:")
        lines.append(f"  rounds replayed      {replayed:>12.0f}")
        lines.append(f"  rounds saved         {saved:>12.0f}")
        total = saved + replayed
        lines.append(f"  savings ratio        {saved / total:>11.1%}" if total else "")
        for key, label in (
            ("timeline.checkpoint.stored", "checkpoints stored"),
            ("timeline.checkpoint.hits", "checkpoint hits"),
            ("timeline.checkpoint.evicted", "checkpoints evicted"),
            ("ckpt.delta.stored", "delta links stored"),
            ("ckpt.delta.applied", "delta links applied"),
            ("ckpt.delta.bytes", "delta bytes"),
        ):
            if key in counters:
                lines.append(f"  {label:<20} {counters[key]:>12.0f}")

    store_keys = sorted(k for k in counters if k.startswith("store."))
    if store_keys:
        lines.append("")
        lines.append("store traffic:")
        for key in store_keys:
            lines.append(f"  {key:<28} {counters[key]:>10.0f}")

    if hists:
        lines.append("")
        lines.append("distributions:")
        lines.append(f"  {'name':<28} {'count':>8} {'mean':>10} {'min':>8} {'max':>8}")
        for name in sorted(hists):
            h = hists[name]
            mean = h["total"] / h["count"] if h["count"] else 0.0
            lines.append(
                f"  {name:<28} {h['count']:>8.0f} {mean:>10.2f} {h['min']:>8.0f} {h['max']:>8.0f}"
            )

    if data["events"]:
        lines.append("")
        lines.append("events:")
        for name in sorted(data["events"]):
            lines.append(f"  {name:<28} {data['events'][name]:>10}")

    if data["workers"]:
        lines.append("")
        lines.append("per-worker timelines:")
        origin = min(w["first"] for w in data["workers"].values() if w["first"] is not None)
        for pid in sorted(data["workers"]):
            w = data["workers"][pid]
            if w["first"] is None:
                continue
            owner = f" ({w['owner']})" if w.get("owner") else ""
            lines.append(
                f"  pid {pid}{owner}: start +{_fmt_seconds(w['first'] - origin)}, "
                f"span {_fmt_seconds(w['last'] - w['first'])}, busy {_fmt_seconds(w['busy'])}, "
                f"{w['spans']} spans / {w['events']} events"
            )

    return "\n".join(line for line in lines if line is not None)


def check_trace(records: Iterable[dict]) -> list[str]:
    """Completeness problems, empty when the trace is sound.

    The contract checked: each ``sweep.execute`` phase span declares how
    many task groups it dispatched (``args.pending``); the merged trace
    must contain at least that many closed ``task.compute`` spans
    (at-least-once queues may legitimately compute a task twice).
    """
    records = list(records)
    spans = [r for r in records if r.get("type") == "span"]
    problems: list[str] = []
    execute_spans = [s for s in spans if s["name"] == "sweep.execute"]
    if not execute_spans:
        problems.append("no sweep.execute spans found — not a sweep trace?")
        return problems
    planned = sum(int((s.get("args") or {}).get("pending", 0)) for s in execute_spans)
    computed = sum(1 for s in spans if s["name"] == "task.compute")
    if computed < planned:
        problems.append(
            f"incomplete: {planned} task group(s) dispatched but only "
            f"{computed} closed task.compute span(s)"
        )
    for s in spans:
        if "dur" not in s or "id" not in s:
            problems.append(f"malformed span record: {s.get('name', '?')!r}")
    return problems
