"""Store observability: stats snapshots, watch loop, CSV export, CLI."""

from __future__ import annotations

import csv
import io
import time
from dataclasses import replace

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.sim.monitor import CSV_COLUMNS, StoreMonitor, WorkerStats, export_csv
from repro.sim.registry import get_scenario
from repro.sim.results import JsonDirBackend, SqliteBackend
from repro.sim.sweep import run_sweep


def tiny_spec():
    return replace(
        get_scenario("fig10-join"),
        n=8,
        strategies=("Minim",),
        sweep_values=(6.0, 8.0),
    )


def _seeded_queue_state(backend):
    """A deterministic mid-drain store state, identical per backend."""
    backend.save_task("t-pending", {"schema": 1})
    backend.save_task("t-claimed", {"schema": 1})
    backend.save_task("t-poison", {"schema": 1})
    assert backend.try_claim("t-claimed", "worker-a", ttl=60.0)
    backend.record_lease_break("t-poison")
    backend.record_lease_break("t-poison")
    backend.quarantine_task("t-poison", reason="2 broken leases")
    backend.save_point("p1", [[1.0, 2.0, 3.0]], context={"worker": "worker-a", "saved_at": 100.0})
    backend.save_point("p2", [[1.0, 2.0, 3.0]], context={"worker": "worker-a", "saved_at": 104.0})
    backend.save_point("p3", [[1.0, 2.0, 3.0]], context={"worker": "worker-b", "saved_at": 102.0})


class TestStoreStats:
    @pytest.mark.parametrize("backend_cls", [JsonDirBackend, SqliteBackend])
    def test_snapshot_counts(self, tmp_path, backend_cls):
        backend = backend_cls(tmp_path / "store")
        _seeded_queue_state(backend)
        stats = StoreMonitor(backend).stats()
        assert stats.points == 3
        assert stats.tasks == 2 and stats.claims == 1 and stats.tasks_pending == 1
        assert stats.quarantined == 1 and stats.lease_breaks == 2
        assert stats.claim_details["t-claimed"]["owner"] == "worker-a"
        assert stats.claim_details["t-claimed"]["age"] >= 0
        assert stats.quarantine_reasons == {"t-poison": "2 broken leases"}

    def test_stats_consistent_across_backends(self, tmp_path):
        # the ISSUE acceptance criterion: identical state, identical stats
        snapshots = []
        for backend_cls, name in ((JsonDirBackend, "j"), (SqliteBackend, "s.sqlite")):
            backend = backend_cls(tmp_path / name)
            _seeded_queue_state(backend)
            stats = StoreMonitor(backend).stats()
            snapshots.append(
                (
                    stats.points,
                    stats.tasks,
                    stats.claims,
                    stats.quarantined,
                    stats.lease_breaks,
                    stats.quarantine_reasons,
                    {w.worker: w.points for w in stats.workers},
                )
            )
        assert snapshots[0] == snapshots[1]

    @pytest.mark.parametrize("backend_cls", [JsonDirBackend, SqliteBackend])
    def test_per_worker_throughput(self, tmp_path, backend_cls):
        backend = backend_cls(tmp_path / "store")
        _seeded_queue_state(backend)
        workers = {w.worker: w for w in StoreMonitor(backend).worker_stats()}
        assert workers["worker-a"].points == 2
        assert workers["worker-a"].points_per_sec == pytest.approx(1 / 4.0)
        assert workers["worker-b"].points == 1
        assert workers["worker-b"].points_per_sec is None  # one point: no rate

    def test_unattributed_points_grouped(self, tmp_path):
        backend = SqliteBackend(tmp_path / "s.sqlite")
        backend.save_point("p", [[1.0, 2.0, 3.0]], context={"run": 0})
        (worker,) = StoreMonitor(backend).worker_stats()
        assert worker.worker == "<unattributed>" and worker.points == 1

    def test_workers_false_skips_the_point_walk(self, tmp_path):
        backend = SqliteBackend(tmp_path / "s.sqlite")
        _seeded_queue_state(backend)
        stats = StoreMonitor(backend).stats(workers=False)
        assert stats.workers == ()
        assert stats.points == 3  # aggregates still present

    def test_render_mentions_every_section(self, tmp_path):
        backend = SqliteBackend(tmp_path / "s.sqlite")
        _seeded_queue_state(backend)
        text = StoreMonitor(backend).stats().render()
        for needle in (
            "sqlite store",
            "quarantined 1",
            "lease breaks 2",
            "t-claimed",
            "owner=worker-a",
            "t-poison",
            "2 broken leases",
            "worker-b",
        ):
            assert needle in text, text

    def test_real_sweep_provenance_feeds_the_monitor(self, tmp_path):
        store = SqliteBackend(tmp_path / "s.sqlite")
        run_sweep(tiny_spec(), runs=2, seed=3, store=store, executor="worker")
        stats = StoreMonitor(store).stats()
        assert stats.points == 4 and stats.tasks == 0 and stats.quarantined == 0
        assert sum(w.points for w in stats.workers) == 4
        assert all(w.worker.startswith("orchestrator-") for w in stats.workers)


class TestWatch:
    def test_watch_prints_bounded_snapshots(self, tmp_path):
        backend = SqliteBackend(tmp_path / "s.sqlite")
        _seeded_queue_state(backend)
        out = io.StringIO()
        printed = StoreMonitor(backend).watch(interval=0.01, iterations=2, stream=out)
        assert printed == 2
        assert out.getvalue().count("sqlite store") == 2

    def test_watch_rejects_bad_interval(self, tmp_path):
        backend = SqliteBackend(tmp_path / "s.sqlite")
        with pytest.raises(ConfigurationError, match="interval"):
            StoreMonitor(backend).watch(interval=0.0, iterations=1)

    def test_worker_stats_rate_guard(self):
        w = WorkerStats(worker="w", points=3, first_saved_at=5.0, last_saved_at=5.0)
        assert w.points_per_sec is None  # zero span must not divide by zero


class TestExportCsv:
    @pytest.mark.parametrize("backend_cls", [JsonDirBackend, SqliteBackend])
    def test_point_rows_from_a_real_sweep(self, tmp_path, backend_cls):
        store = backend_cls(tmp_path / "store")
        run_sweep(tiny_spec(), runs=2, seed=3, store=store)
        out = tmp_path / "points.csv"
        assert export_csv(store, out) == 4
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 4
        assert set(rows[0]) == set(CSV_COLUMNS)
        assert {row["sweep_value"] for row in rows} == {"6.0", "8.0"}
        assert {row["run"] for row in rows} == {"0", "1"}
        assert all(row["strategy"] == "Minim" for row in rows)
        assert all(row["worker"].startswith("proc-") for row in rows)
        assert all(float(row["recodings"]) >= 0 for row in rows)

    def test_delta_rounds_points_get_one_row_per_round(self, tmp_path):
        spec = replace(
            get_scenario("fig12-move-rounds"),
            n=8,
            strategies=("Minim",),
            sweep_values=(3.0,),
        )
        store = SqliteBackend(tmp_path / "s.sqlite")
        run_sweep(spec, runs=1, seed=4, store=store)
        buf = io.StringIO()
        assert export_csv(store, buf) == 3  # one point, three rounds
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert [row["round"] for row in rows] == ["1", "2", "3"]

    def test_foreign_points_without_context_are_tolerated(self, tmp_path):
        backend = SqliteBackend(tmp_path / "s.sqlite")
        backend.save_point("bare", [[1.0, 2.0, 3.0]])
        backend.save_point_record("weird", {"schema": 1, "result": "not-a-list"})
        buf = io.StringIO()
        assert export_csv(backend, buf) == 1
        (row,) = csv.DictReader(io.StringIO(buf.getvalue()))
        assert row["strategy"] == "s0" and row["max_color"] == "1.0"

    def test_legacy_core_stamps_still_export(self, tmp_path):
        # records written while the sweep stamped its conflict core
        backend = SqliteBackend(tmp_path / "s.sqlite")
        backend.save_point("old", [[1.0, 2.0, 3.0]], context={"worker": "w", "core": "sparse"})
        buf = io.StringIO()
        assert export_csv(backend, buf) == 1
        (row,) = csv.DictReader(io.StringIO(buf.getvalue()))
        assert row["worker"] == "w" and "core" not in row


class TestInspectQuarantined:
    """``store inspect KEY``: serial replay + auto-requeue triage."""

    def _parked_real_group(self, backend):
        """Publish one real task group and park it as poison."""
        from repro.sim.executor import group_payload
        from repro.sim.sweep import build_sweep, plan_tasks

        (group, *rest) = plan_tasks(build_sweep(tiny_spec(), runs=1, seed=3))
        backend.save_task(group.key, group_payload(group))
        for _ in range(3):
            backend.record_lease_break(group.key)
        assert backend.quarantine_task(group.key, reason="3 broken leases")
        return group

    @pytest.mark.parametrize("backend_cls", [JsonDirBackend, SqliteBackend])
    def test_success_saves_points_and_requeues(self, tmp_path, backend_cls):
        from repro.sim.monitor import inspect_quarantined

        backend = backend_cls(tmp_path / "store")
        group = self._parked_real_group(backend)
        stream = io.StringIO()
        summary = inspect_quarantined(backend, group.key, stream=stream)
        assert summary["members"] == 1 and summary["requeued"]
        assert summary["reason"] == "3 broken leases"
        assert backend.list_quarantined() == []
        assert backend.load_point(group.keys[0]) is not None
        assert backend.lease_breaks(group.key) == 0  # clean slate
        assert "replaying 1 member(s)" in stream.getvalue()
        # the requeued task now looks complete: one worker scan cleans it
        from repro.sim.executor import run_worker

        assert run_worker(backend, once=True) == 0  # cleaned, not recomputed
        assert backend.pending_task_keys() == []

    def test_inspecting_a_healthy_key_is_an_error(self, tmp_path):
        from repro.sim.monitor import inspect_quarantined

        backend = SqliteBackend(tmp_path / "s.sqlite")
        with pytest.raises(ConfigurationError, match="not quarantined"):
            inspect_quarantined(backend, "nope")

    def test_undecodable_descriptor_surfaces_the_decode_error(self, tmp_path):
        from repro.sim.monitor import inspect_quarantined

        backend = SqliteBackend(tmp_path / "s.sqlite")
        backend.save_task("t-bogus", {"schema": 1})  # malformed: no members
        backend.quarantine_task("t-bogus", reason="undecodable descriptor")
        with pytest.raises(ConfigurationError, match="malformed task descriptor"):
            inspect_quarantined(backend, "t-bogus", stream=io.StringIO())
        # triage failed: the task stays parked for the operator
        assert backend.list_quarantined() == ["t-bogus"]

    def test_store_inspect_cli_success(self, tmp_path, capsys):
        db = tmp_path / "store.sqlite"
        backend = SqliteBackend(db)
        group = self._parked_real_group(backend)
        assert main(["store", "inspect", str(db), group.key]) == 0
        out = capsys.readouterr().out
        assert "replay ok" in out and "requeued with a clean slate" in out

    def test_store_inspect_cli_needs_a_key(self, tmp_path, capsys):
        db = tmp_path / "store.sqlite"
        SqliteBackend(db)
        assert main(["store", "inspect", str(db)]) == 2
        assert "KEY" in capsys.readouterr().err

    def test_store_inspect_cli_undecodable_is_a_clean_error(self, tmp_path, capsys):
        db = tmp_path / "store.sqlite"
        backend = SqliteBackend(db)
        backend.save_task("t-bogus", {"schema": 1})
        backend.quarantine_task("t-bogus", reason="undecodable")
        assert main(["store", "inspect", str(db), "t-bogus"]) == 2
        assert "malformed task descriptor" in capsys.readouterr().err


class TestStoreCliActions:
    def _quarantined_store(self, tmp_path):
        db = tmp_path / "store.sqlite"
        backend = SqliteBackend(db)
        _seeded_queue_state(backend)
        return db, backend

    def test_store_stats_cli(self, tmp_path, capsys):
        db, _ = self._quarantined_store(tmp_path)
        assert main(["store", "stats", str(db)]) == 0
        out = capsys.readouterr().out
        assert "quarantined 1" in out and "worker-a" in out

    def test_store_stats_no_workers(self, tmp_path, capsys):
        db, _ = self._quarantined_store(tmp_path)
        assert main(["store", "stats", str(db), "--no-workers"]) == 0
        assert "workers:" not in capsys.readouterr().out

    def test_store_watch_cli_iterations(self, tmp_path, capsys):
        db, _ = self._quarantined_store(tmp_path)
        rc = main(["store", "watch", str(db), "--interval", "0.01", "--iterations", "2"])
        assert rc == 0
        assert capsys.readouterr().out.count("sqlite store") == 2

    def test_store_requeue_cli_releases_everything(self, tmp_path, capsys):
        db, backend = self._quarantined_store(tmp_path)
        assert main(["store", "requeue", str(db)]) == 0
        out = capsys.readouterr().out
        assert "requeued t-poison" in out and "released 1 task(s)" in out
        assert backend.list_quarantined() == []
        assert "t-poison" in backend.pending_task_keys()
        assert backend.lease_breaks("t-poison") == 0

    def test_store_requeue_cli_unknown_key_fails(self, tmp_path, capsys):
        db, _ = self._quarantined_store(tmp_path)
        assert main(["store", "requeue", str(db), "--key", "nope"]) == 2
        assert "not quarantined" in capsys.readouterr().err

    def test_store_export_cli(self, tmp_path, capsys):
        db = tmp_path / "store.sqlite"
        run_sweep(tiny_spec(), runs=1, seed=3, store=SqliteBackend(db))
        out_csv = tmp_path / "points.csv"
        assert main(["store", "export", str(db), "--csv", str(out_csv)]) == 0
        assert "wrote 2 row(s)" in capsys.readouterr().out
        assert out_csv.read_text().startswith("point_key")

    def test_store_export_cli_stdout_and_missing_csv(self, tmp_path, capsys):
        db = tmp_path / "store.sqlite"
        run_sweep(tiny_spec(), runs=1, seed=3, store=SqliteBackend(db))
        assert main(["store", "export", str(db)]) == 2
        assert "--csv" in capsys.readouterr().err
        assert main(["store", "export", str(db), "--csv", "-"]) == 0
        assert "point_key" in capsys.readouterr().out

    def test_store_ls_reports_quarantined(self, tmp_path, capsys):
        db, _ = self._quarantined_store(tmp_path)
        assert main(["store", "ls", str(db)]) == 0
        assert "quarantined 1" in capsys.readouterr().out


def test_watch_sleeps_between_snapshots(tmp_path):
    backend = JsonDirBackend(tmp_path / "store")
    start = time.monotonic()
    StoreMonitor(backend).watch(interval=0.05, iterations=3, stream=io.StringIO())
    assert time.monotonic() - start >= 0.1  # two sleeps of 0.05s
