"""On-disk format pins for both results backends.

``store_fixtures/json/`` and ``store_fixtures/store.sqlite`` were
written by :func:`replay_writes` with the code of commit ``10f405f``,
before the two backends shared one storage interface::

    mkdir old && git archive 10f405f src | tar -x -C old
    PYTHONPATH=old/src python tests/sim/test_store_format.py tests/sim/store_fixtures

The writes fill every table (point, manifest, series, task, churn,
quarantine, heartbeat, checkpoint, meta) with fixed values.  Current
code must read both fixtures back, and replaying the same writes must
reproduce them: the JSON files byte for byte, the SQLite
``artifacts``/``claims`` rows exactly.
"""

from __future__ import annotations

import shutil
import sqlite3
import sys
from pathlib import Path

import pytest

from repro.analysis.series import ExperimentSeries
from repro.sim.results import JsonDirBackend, SqliteBackend

FIXTURES = Path(__file__).parent / "store_fixtures"

LINK = {
    "schema": 1,
    "kind": "exec-delta",
    "base": None,
    "base_version": 0,
    "version": 10,
    "replay": {"schema": 1},
    "baselines": None,
    "samples": [],
}


def replay_writes(store) -> None:
    """One fixed write into each of the nine tables (some twice)."""
    store.save_point("p1", [[1.0, 2.0, 3.0]], context={"run": 0, "value": 6.0})
    store.save_point("p2", [[4.5, 5.5, 6.5]], context={"run": 1, "value": 8.0})
    store.save_manifest("sweep1", {"points": ["p1", "p2"], "runs": 2, "computed": 2, "cached": 0})
    store.save_series(
        ExperimentSeries(
            experiment="exp-a",
            x_label="N",
            x_values=[6.0, 8.0],
            metrics={"recodings": {"Minim": [1.0, 2.0]}},
            runs=2,
            stderr={"recodings": {"Minim": [0.1, 0.2]}},
        )
    )
    store.save_task("task1", {"schema": 1, "keys": ["p1"]})
    store.save_task("task2", {"schema": 1, "keys": ["p2"]})
    store.record_lease_break("task1")
    store.record_lease_break("task1")
    store.save_quarantined(
        "task3",
        {
            "schema": 1,
            "payload": {"schema": 1, "keys": ["p3"]},
            "reason": "poison",
            "lease_breaks": 3,
            "quarantined_at": 1000.0,
        },
    )
    store.save_heartbeat_record("worker-1", {"at": 100.0, "pid": 1})
    store.put_checkpoint("ckpt1", {**LINK, "points": ["p1"]})
    store.put_checkpoint("ckpt2", {**LINK, "base": "ckpt1", "version": 20})
    store.put_checkpoint("ckpt1", LINK)  # duplicate: first writer wins
    store.get_checkpoint("ckpt1")
    store.get_checkpoint("absent")


def snapshot(store) -> dict:
    """Every table's contents through the public read API (no writes)."""
    return {
        "points": {k: store.load_point_record(k) for k in store.list_points()},
        "manifests": {k: store.load_manifest(k) for k in store.list_manifests()},
        "series": {k: store.load_series_dict(k) for k in store.list_series()},
        "tasks": {k: store.load_task(k) for k in store.pending_task_keys()},
        "churn": store.lease_break_counts(),
        "quarantine": {k: store.load_quarantined(k) for k in store.list_quarantined()},
        "heartbeats": store.heartbeat_records(),
        "checkpoints": {k: store.load_checkpoint_record(k) for k in store.list_checkpoints()},
        "meta": store.load_checkpoint_meta(),
    }


def _files(root: Path) -> dict[str, bytes]:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {str(p.relative_to(root)): p.read_bytes() for p in files}


def _rows(path: Path) -> dict[str, list]:
    conn = sqlite3.connect(path)
    try:
        return {
            "artifacts": conn.execute(
                "SELECT kind, key, payload FROM artifacts ORDER BY kind, key"
            ).fetchall(),
            "claims": conn.execute(
                "SELECT key, owner, claimed_at FROM claims ORDER BY key"
            ).fetchall(),
        }
    finally:
        conn.close()


@pytest.fixture
def fixture_stores(tmp_path):
    """Copies of both fixture stores (reads must not touch the originals)."""
    shutil.copytree(FIXTURES / "json", tmp_path / "json")
    shutil.copy(FIXTURES / "store.sqlite", tmp_path / "store.sqlite")
    return JsonDirBackend(tmp_path / "json"), SqliteBackend(tmp_path / "store.sqlite")


def test_fixtures_read_back_identically(fixture_stores, tmp_path):
    js, sq = fixture_stores
    fresh = JsonDirBackend(tmp_path / "fresh")
    replay_writes(fresh)
    expected = snapshot(fresh)
    assert snapshot(js) == expected
    assert snapshot(sq) == expected
    assert expected["meta"] == {"writes": 2, "hits": 1, "misses": 1}
    assert expected["churn"] == {"task1": 2}
    assert expected["checkpoints"]["ckpt1"]["points"] == ["p1"]
    assert expected["heartbeats"] == {"worker-1": {"at": 100.0, "pid": 1}}
    assert sq.load_series("exp-a") == js.load_series("exp-a")
    assert sq.checkpoint_stats()["count"] == js.checkpoint_stats()["count"] == 2


def test_json_replay_is_byte_identical(tmp_path):
    replay_writes(JsonDirBackend(tmp_path / "json"))
    assert _files(tmp_path / "json") == _files(FIXTURES / "json")


def test_sqlite_replay_is_row_identical(tmp_path):
    replay_writes(SqliteBackend(tmp_path / "store.sqlite"))
    assert _rows(tmp_path / "store.sqlite") == _rows(FIXTURES / "store.sqlite")


if __name__ == "__main__":  # regenerate: python test_store_format.py OUTDIR
    out = Path(sys.argv[1])
    replay_writes(JsonDirBackend(out / "json"))
    replay_writes(SqliteBackend(out / "store.sqlite"))
