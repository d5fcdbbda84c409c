"""Reference series: per-point digests the correctness gate compares against.

A reference file ``references/<workload>.json`` maps a workload seed to
``{point id: digest}``, where a point is one x-value of one sweep's
series (``"fig10-join@40"``) and the digest covers every strategy's
metric means and standard errors at that x-value, with floats written by
``repr`` — so any change in any digit of the series shows.  Digests keep
the committed files small; a mismatch is found per point, not per file.

A corrupt or unreadable file is reported, never raised: every point it
should have vouched for counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

__all__ = ["load_reference", "point_digests", "save_reference"]

FORMAT = 1


def point_digests(label: str, series) -> dict[str, str]:
    """``{"<label>@<x>": digest}`` for every x-value of an ExperimentSeries."""
    out: dict[str, str] = {}
    for i, x in enumerate(series.x_values):
        values = {
            field: {
                metric: {s: repr(float(v[i])) for s, v in sorted(by_strategy.items())}
                for metric, by_strategy in sorted(table.items())
            }
            for field, table in (("mean", series.metrics), ("stderr", series.stderr))
        }
        blob = json.dumps(values, sort_keys=True, separators=(",", ":"))
        out[f"{label}@{x:g}"] = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return out


def load_reference(path: Path, seed: int) -> tuple[dict[str, str] | None, str]:
    """``(digests or None, status)`` for ``seed``.

    ``status`` is ``"ok"``, ``"missing"`` (no file or no entry for the
    seed — the caller falls back to consistency checks) or
    ``"corrupt: <why>"`` (the caller fails every point it checks).
    """
    if not path.exists():
        return None, "missing"
    try:
        doc = json.loads(path.read_text())
        if doc.get("format") != FORMAT:
            return None, f"corrupt: format {doc.get('format')!r}, expected {FORMAT}"
        entry = doc["seeds"].get(str(seed))
    except (OSError, ValueError, KeyError, AttributeError, TypeError) as exc:
        return None, f"corrupt: {type(exc).__name__}: {exc}"
    if entry is None:
        return None, "missing"
    if not isinstance(entry, dict) or not all(isinstance(v, str) for v in entry.values()):
        return None, "corrupt: seed entry is not a {point: digest} map"
    return entry, "ok"


def save_reference(path: Path, workload: str, seed: int, digests: dict[str, str]) -> None:
    """Record ``digests`` as the reference of ``seed`` (other seeds kept)."""
    doc = {"format": FORMAT, "workload": workload, "seeds": {}}
    if path.exists():
        doc = json.loads(path.read_text())
    doc["seeds"][str(seed)] = dict(sorted(digests.items()))
    doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
