"""On-disk format pins for both results backends.

``store_fixtures_8table/json/`` and ``store_fixtures_8table/store.sqlite``
were written by :func:`replay_writes` with the current eight-table
store, into an empty directory (lease breaks count up on a rerun)::

    PYTHONPATH=src python tests/sim/test_store_format.py tests/sim/store_fixtures_8table

The writes fill every table (point, manifest, series, task, churn,
quarantine, heartbeat, checkpoint) with fixed values.  Current code
must read the fixtures back, and replaying the same writes must
reproduce them: the JSON files byte for byte, the SQLite
``artifacts``/``claims`` rows exactly.

``store_fixtures/`` holds the same writes made by the code of commit
``10f405f``, when stores had a ninth ``meta`` table of checkpoint
counters (``meta/checkpoints.json``, or a ``kind='meta'`` row).  These
legacy stores must still open, read back identically, and gc, migrate
and compact; their ``meta`` record is ignored by every read.
"""

from __future__ import annotations

import shutil
import sqlite3
import sys
from pathlib import Path

import pytest

from repro.analysis.series import ExperimentSeries
from repro.sim.results import JsonDirBackend, SqliteBackend, migrate_store

FIXTURES = Path(__file__).parent / "store_fixtures_8table"
LEGACY = Path(__file__).parent / "store_fixtures"

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
    """One fixed write into each of the eight tables (some twice)."""
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
    }


def durable(snap: dict) -> dict:
    """The tables a migration copies."""
    return {k: snap[k] for k in ("points", "manifests", "series", "checkpoints")}


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


def _copies(root: Path, tmp_path: Path) -> tuple[JsonDirBackend, SqliteBackend]:
    """Copies of one fixture pair (reads must not touch the originals)."""
    shutil.copytree(root / "json", tmp_path / "json")
    shutil.copy(root / "store.sqlite", tmp_path / "store.sqlite")
    return JsonDirBackend(tmp_path / "json"), SqliteBackend(tmp_path / "store.sqlite")


@pytest.fixture
def expected(tmp_path) -> dict:
    fresh = JsonDirBackend(tmp_path / "fresh")
    replay_writes(fresh)
    return snapshot(fresh)


def test_fixtures_read_back_identically(expected, tmp_path):
    _assert_reads_back(FIXTURES, expected, tmp_path)


def test_legacy_fixtures_read_back_identically(expected, tmp_path):
    _assert_reads_back(LEGACY, expected, tmp_path)


def _assert_reads_back(root: Path, expected: dict, tmp_path: Path) -> None:
    js, sq = _copies(root, tmp_path)
    assert snapshot(js) == expected
    assert snapshot(sq) == expected
    assert expected["churn"] == {"task1": 2}
    assert expected["checkpoints"]["ckpt1"]["points"] == ["p1"]
    assert expected["heartbeats"] == {"worker-1": {"at": 100.0, "pid": 1}}
    assert sq.load_series("exp-a") == js.load_series("exp-a")
    for store in (js, sq):
        stats = store.checkpoint_stats()
        assert set(stats) == {"count", "bytes"} and stats["count"] == 2


def test_json_replay_is_byte_identical(tmp_path):
    replay_writes(JsonDirBackend(tmp_path / "json"))
    assert _files(tmp_path / "json") == _files(FIXTURES / "json")


def test_sqlite_replay_is_row_identical(tmp_path):
    replay_writes(SqliteBackend(tmp_path / "store.sqlite"))
    assert _rows(tmp_path / "store.sqlite") == _rows(FIXTURES / "store.sqlite")


def test_legacy_fixtures_differ_only_by_the_meta_record():
    legacy = _files(LEGACY / "json")
    assert legacy.pop("meta/checkpoints.json")
    assert legacy == _files(FIXTURES / "json")
    rows = _rows(LEGACY / "store.sqlite")
    meta = [row for row in rows["artifacts"] if row[0] == "meta"]
    assert [row[:2] for row in meta] == [("meta", "checkpoints")]
    rows["artifacts"].remove(meta[0])
    assert rows == _rows(FIXTURES / "store.sqlite")


def test_legacy_fixtures_gc(tmp_path):
    for store in _copies(LEGACY, tmp_path):
        # ckpt1 is stamped with p1, which sweep1 references; ckpt2 is not
        assert store.gc_checkpoints() == {"kept": 1, "removed": 1}
        assert store.list_checkpoints() == ["ckpt1"]


def test_legacy_fixtures_migrate(expected, tmp_path):
    js, sq = _copies(LEGACY, tmp_path)
    to_sqlite = SqliteBackend(tmp_path / "from-json.sqlite")
    to_json = JsonDirBackend(tmp_path / "from-sqlite")
    migrate_store(js, to_sqlite)
    migrate_store(sq, to_json)
    for dst in (to_sqlite, to_json):
        assert durable(snapshot(dst)) == durable(expected)
    assert not (to_json.root / "meta").exists()
    assert all(kind != "meta" for kind, _, _ in _rows(to_sqlite.path)["artifacts"])


def test_legacy_fixtures_compact(expected, tmp_path):
    js, sq = _copies(LEGACY, tmp_path)
    assert durable(snapshot(sq.compact())) == durable(expected)
    compacted = js.compact()
    assert sorted(p.name for p in js.root.iterdir()) == ["store.sqlite"]
    # compaction gc's the link no manifest references first
    kept = {"ckpt1": expected["checkpoints"]["ckpt1"]}
    assert durable(snapshot(compacted)) == {**durable(expected), "checkpoints": kept}


def test_legacy_fixtures_ckpt_ls(tmp_path, capsys):
    from repro.cli import main

    js, sq = _copies(LEGACY, tmp_path)
    for locator in (js.root, sq.path):
        assert main(["store", "ckpt", str(locator), "ls"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("2 checkpoint link(s), ")
        assert out[1:] == [
            "  ckpt1  base=<fresh>  version=10  points=1",
            "  ckpt2  base=ckpt1  version=20  points=0",
        ]
    assert _rows(sq.path) == _rows(LEGACY / "store.sqlite")  # listing writes nothing


if __name__ == "__main__":  # regenerate: python test_store_format.py OUTDIR
    out = Path(sys.argv[1])
    replay_writes(JsonDirBackend(out / "json"))
    replay_writes(SqliteBackend(out / "store.sqlite"))
