"""The results backends: artifacts, manifests, series, and sweep resume."""

from __future__ import annotations

import json
import sqlite3
import time

import numpy as np
import pytest

from repro.analysis.series import ExperimentSeries
from repro.errors import ConfigurationError
from repro.sim.registry import available_scenarios, get_scenario
from repro.sim.results import (
    CheckpointScope,
    JsonDirBackend,
    SqliteBackend,
    migrate_store,
    open_backend,
    seed_token,
    spec_digest,
)
from repro.sim.sweep import build_sweep, claim_cached, plan_tasks, run_sweep
from tests.conftest import series_json, shrunk_scenario


def tiny_spec():
    from dataclasses import replace

    return replace(
        get_scenario("fig10-join"),
        n=8,
        strategies=("Minim",),
        sweep_values=(6.0, 8.0),
    )


def paired_spec():
    from dataclasses import replace

    return replace(
        get_scenario("fig11-power"),
        n=10,
        strategies=("Minim",),
        sweep_values=(2.0, 4.0),
    )


def _stored(backend) -> dict:
    """Every stored record of ``backend`` as ``{(table, key): payload}``."""
    if isinstance(backend, SqliteBackend):
        conn = sqlite3.connect(backend.path)
        try:
            rows = conn.execute("SELECT kind, key, payload FROM artifacts").fetchall()
        finally:
            conn.close()
        return {(kind, key): payload for kind, key, payload in rows}
    return {
        (p.parent.name, p.stem): p.read_bytes() for p in backend.root.rglob("*") if p.is_file()
    }


@pytest.fixture(params=["json", "sqlite"])
def backend(request, tmp_path):
    """A fresh, not yet created store of each kind under ``tmp_path/store``."""
    return open_backend(tmp_path / "store", request.param)


class TestKeys:
    def test_spec_digest_stable_and_sensitive(self):
        spec = tiny_spec()
        assert spec_digest(spec) == spec_digest(spec)
        from dataclasses import replace

        assert spec_digest(spec) != spec_digest(replace(spec, n=9))
        assert spec_digest(spec) != spec_digest(spec, extra={"runs": 3})

    def test_seed_token_int_and_seedsequence(self):
        assert seed_token(7) == "int-7"
        root = np.random.SeedSequence(5)
        child = root.spawn(2)[1]
        assert seed_token(root) == "ss-5-root"
        assert seed_token(child) == "ss-5-1"
        # identity follows the derivation path, not the object
        assert seed_token(np.random.SeedSequence(5).spawn(2)[1]) == seed_token(child)


class TestStoreIO:
    def test_point_roundtrip(self, tmp_path):
        store = JsonDirBackend(tmp_path)
        assert store.load_point("abc") is None
        store.save_point("abc", [[1.0, 2.0, 3.0]], context={"run": 0})
        assert store.load_point("abc") == [[1.0, 2.0, 3.0]]
        payload = json.loads((tmp_path / "points" / "abc.json").read_text())
        assert store.point_locator("abc") == str(tmp_path / "points" / "abc.json")
        assert payload["context"] == {"run": 0}

    def test_corrupt_point_raises(self, tmp_path):
        store = JsonDirBackend(tmp_path)
        (tmp_path / "points").mkdir()
        (tmp_path / "points" / "bad.json").write_text("{not json")
        with pytest.raises(ConfigurationError, match="corrupt"):
            store.load_point("bad")

    def test_corrupt_manifest_raises_with_path(self, tmp_path):
        store = JsonDirBackend(tmp_path)
        path = tmp_path / "sweeps" / "bad.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match=str(path)):
            store.load_manifest("bad")

    def test_corrupt_series_raises_with_path(self, tmp_path):
        store = JsonDirBackend(tmp_path)
        path = tmp_path / "series" / "bad.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match=str(path)):
            store.load_series("bad")


class TestTables:
    """One round trip per table, on both backends."""

    def test_points(self, backend):
        assert backend.load_point("abc") is None
        backend.save_point("abc", [[1.0, 2.0, 3.0]], context={"run": 0})
        assert backend.load_point("abc") == [[1.0, 2.0, 3.0]]
        assert backend.load_point_record("abc")["context"] == {"run": 0}
        assert backend.list_points() == ["abc"]

    def test_load_points_bulk_matches_per_key(self, backend):
        keys = [f"k{i}" for i in range(7)]
        for i, key in enumerate(keys[:5]):
            backend.save_point(key, [[float(i)]])
        bulk = backend.load_points(keys)
        assert bulk == {key: backend.load_point(key) for key in keys[:5]}
        assert backend.load_points([]) == {}

    def test_manifests(self, backend):
        assert backend.load_manifest("sw") is None
        backend.save_manifest("sw", {"runs": 2})
        backend.save_manifest("sw", {"runs": 3})  # latest wins
        assert backend.load_manifest("sw") == {"runs": 3}
        assert backend.list_manifests() == ["sw"]

    def test_series(self, backend):
        series = ExperimentSeries(
            experiment="exp-s",
            x_label="N",
            x_values=[1.0],
            metrics={"recodings": {"Minim": [1.0]}},
            runs=1,
            stderr={"recodings": {"Minim": [0.1]}},
        )
        backend.save_series(series)
        assert backend.load_series("exp-s") == series
        assert backend.load_series_dict("exp-s") == series.to_dict()
        assert backend.list_series() == ["exp-s"]
        with pytest.raises(ConfigurationError, match="no stored series"):
            backend.load_series("nope")

    def test_tasks(self, backend):
        assert backend.pending_task_keys() == []
        backend.save_task("t1", {"k": 1})
        assert backend.load_task("t1") == {"k": 1}
        assert backend.pending_task_keys() == ["t1"]
        backend.delete_task("t1")
        backend.delete_task("t1")  # idempotent
        assert backend.load_task("t1") is None

    def test_churn(self, backend):
        assert backend.lease_breaks("k") == 0
        assert backend.record_lease_break("k") == 1
        assert backend.record_lease_break("k") == 2
        assert backend.record_lease_break("other") == 1
        assert backend.lease_break_counts() == {"k": 2, "other": 1}
        backend.reset_lease_breaks("k")
        backend.reset_lease_breaks("k")  # idempotent
        assert backend.lease_breaks("k") == 0

    def test_quarantine(self, backend):
        record = {"schema": 1, "payload": {"x": 1}, "reason": "r"}
        assert backend.load_quarantined("q") is None
        backend.save_quarantined("q", record)
        assert backend.load_quarantined("q") == record
        assert backend.list_quarantined() == ["q"]
        backend.delete_quarantined("q")
        backend.delete_quarantined("q")  # idempotent
        assert backend.list_quarantined() == []

    def test_heartbeats(self, backend):
        assert backend.heartbeat_records() == {}
        backend.save_heartbeat_record("w1", {"at": 100.0, "pid": 1})
        backend.save_heartbeat_record("w1", {"at": 200.0, "pid": 1})  # latest wins
        backend.record_heartbeat("w2")
        records = backend.heartbeat_records()
        assert list(records) == ["w1", "w2"]
        assert records["w1"] == {"at": 200.0, "pid": 1}
        assert backend.heartbeats()["w1"] == 200.0

    def test_checkpoints(self, backend):
        assert backend.load_checkpoint_record("c") is None
        assert backend.save_checkpoint_record("c", {"version": 1}) is True
        assert backend.save_checkpoint_record("c", {"version": 2}) is False
        assert backend.load_checkpoint_record("c") == {"version": 1}
        assert backend.list_checkpoints() == ["c"]
        backend.delete_checkpoint("c")
        assert backend.list_checkpoints() == []

    def test_meta(self, backend):
        # checkpoint reads keep no counters: a hit and a miss leave every
        # stored record as it was, and no ``meta`` table appears
        backend.put_checkpoint("c", {"version": 1})
        before = _stored(backend)
        assert backend.get_checkpoint("c") == {"version": 1}
        assert backend.get_checkpoint("absent") is None
        assert _stored(backend) == before
        assert not any(kind == "meta" for kind, _ in before)
        stats = backend.checkpoint_stats()
        assert set(stats) == {"count", "bytes"} and stats["count"] == 1

    def test_reads_never_create_the_store(self, backend, tmp_path):
        assert backend.load_point("x") is None
        assert backend.load_points(["x"]) == {}
        assert backend.load_manifest("x") is None
        assert backend.load_task("x") is None
        assert backend.list_points() == []
        assert backend.list_claims() == []
        assert backend.claim_age("x") is None
        assert backend.heartbeat_records() == {}
        assert backend.lease_break_counts() == {}
        assert backend.get_checkpoint("x") is None
        assert backend.checkpoint_stats()["count"] == 0
        assert backend.queue_stats()["points"] == 0
        assert backend.describe()["points"] == 0
        backend.release_claim("x")
        backend.delete_task("x")
        assert not (tmp_path / "store").exists()


class TestSqliteBackend:
    def test_directory_path_resolves_to_store_sqlite(self, tmp_path):
        store = SqliteBackend(tmp_path)
        assert store.path.name == "store.sqlite"


class TestStoreKeys:
    BAD_KEYS = ["", ".hidden", "../x", "a/b", "a\\b", "a\0b"]

    @pytest.mark.parametrize("key", BAD_KEYS)
    def test_bad_keys_are_refused_everywhere(self, backend, key):
        calls = [
            lambda: backend.save_point(key, [[1.0]]),
            lambda: backend.load_points([key]),
            lambda: backend.save_task(key, {}),
            lambda: backend.load_quarantined(key),
            lambda: backend.put_checkpoint(key, {}),
            lambda: backend.record_heartbeat(key),
            lambda: backend.try_claim(key, "w"),
            lambda: backend.release_claim(key),
        ]
        for call in calls:
            with pytest.raises(ConfigurationError, match="invalid store key") as err:
                call()
            assert repr(key) in str(err.value) and backend.locator in str(err.value)

    def test_save_task_writes_nothing_outside_the_root(self, backend, tmp_path):
        with pytest.raises(ConfigurationError):
            backend.save_task("../../x", {"schema": 1})
        assert not list(tmp_path.glob("x*"))
        assert backend.pending_task_keys() == []

    @pytest.mark.parametrize("form", ["positional", "--key"])
    def test_cli_requeue_refuses_a_path_key(self, backend, form, capsys):
        from repro.cli import main

        backend.save_task("K", {"schema": 1, "x": 1})
        assert backend.quarantine_task("K", reason="poison")
        key = ["../quarantine/K"] if form == "positional" else ["--key", "../quarantine/K"]
        code = main(["store", "requeue", backend.locator, *key])
        assert code == 2
        assert "invalid store key" in capsys.readouterr().err
        assert backend.list_quarantined() == ["K"]
        assert backend.load_quarantined("K")["payload"] == {"schema": 1, "x": 1}
        assert backend.pending_task_keys() == []
        # the plain key still requeues
        assert main(["store", "requeue", backend.locator, "K"]) == 0
        assert backend.pending_task_keys() == ["K"]


class TestOpenBackend:
    def test_sniffs_sqlite_suffix_and_existing_file(self, tmp_path):
        assert open_backend(tmp_path / "a.sqlite").kind == "sqlite"
        assert open_backend(tmp_path / "a.db").kind == "sqlite"
        assert open_backend(tmp_path / "plain-dir").kind == "json"
        sq = SqliteBackend(tmp_path / "made.sqlite")
        sq.save_task("t", {})
        assert open_backend(sq.path).kind == "sqlite"

    def test_dir_with_store_sqlite_routes_to_sqlite(self, tmp_path):
        SqliteBackend(tmp_path / "store.sqlite").save_task("t", {})
        backend = open_backend(tmp_path)
        assert backend.kind == "sqlite"

    def test_forced_kinds_and_bad_kind(self, tmp_path):
        assert open_backend(tmp_path, "json").kind == "json"
        assert open_backend(tmp_path / "x", "sqlite").kind == "sqlite"
        with pytest.raises(ConfigurationError, match="unknown results-backend"):
            open_backend(tmp_path, "parquet")

    def test_locator_round_trips(self, tmp_path):
        for backend in (JsonDirBackend(tmp_path / "j"), SqliteBackend(tmp_path / "s.sqlite")):
            reopened = open_backend(backend.locator)
            assert reopened.kind == backend.kind
            assert reopened.locator == backend.locator


class TestBackendParity:
    def test_sweep_series_identical_on_json_and_sqlite(self, tmp_path):
        # the ISSUE acceptance criterion: same spec+seed, either backend
        spec = tiny_spec()
        js = run_sweep(spec, runs=2, seed=3, store=JsonDirBackend(tmp_path / "j"))
        sq = run_sweep(spec, runs=2, seed=3, store=SqliteBackend(tmp_path / "s.sqlite"))
        assert js.metrics == sq.metrics
        assert js.stderr == sq.stderr
        assert js.x_values == sq.x_values

    def test_migrate_json_to_sqlite_preserves_everything(self, tmp_path):
        src = JsonDirBackend(tmp_path / "j")
        run_sweep(tiny_spec(), runs=1, seed=3, store=src)
        dst = SqliteBackend(tmp_path / "s.sqlite")
        counts = migrate_store(src, dst)
        assert counts["points"] == 2 and counts["series"] == 1 and counts["manifests"] == 1
        for key in src.list_points():
            assert dst.load_point_record(key) == src.load_point_record(key)
        exp = src.list_series()[0]
        assert dst.load_series(exp) == src.load_series(exp)
        # and back again
        back = JsonDirBackend(tmp_path / "j2")
        migrate_store(dst, back)
        assert back.load_series(exp) == src.load_series(exp)

    def test_compact_folds_points_and_resume_survives(self, tmp_path):
        store = JsonDirBackend(tmp_path / "st")
        spec = tiny_spec()
        run_sweep(spec, runs=1, seed=3, store=store)
        compacted = store.compact()
        assert compacted.kind == "sqlite"
        assert not (tmp_path / "st" / "points").exists()
        # open_backend on the original root now finds the sqlite store
        reopened = open_backend(tmp_path / "st")
        assert reopened.kind == "sqlite"
        again = run_sweep(spec, runs=1, seed=3, store=reopened)
        assert "0 points computed, 2 from cache" in again.notes


class TestChurnAndQuarantine:
    def test_breaking_a_stale_lease_is_counted(self, backend):
        assert backend.try_claim("k", "dead", ttl=0.05)
        time.sleep(0.1)
        assert backend.try_claim("k", "breaker", ttl=0.05)
        assert backend.lease_breaks("k") == 1
        # a vanilla release-then-claim cycle is not churn
        backend.release_claim("k")
        assert backend.try_claim("k", "next", ttl=60.0)
        assert backend.lease_breaks("k") == 1

    def test_quarantine_round_trip(self, backend):
        backend.save_task("k", {"schema": 1, "x": 2})
        backend.record_lease_break("k")
        assert backend.quarantine_task("k", reason="why")
        assert backend.load_task("k") is None
        assert backend.pending_task_keys() == []
        record = backend.load_quarantined("k")
        assert record["payload"] == {"schema": 1, "x": 2}
        assert record["reason"] == "why" and record["lease_breaks"] == 1
        assert backend.quarantine_task("k") is True  # idempotent re-park
        assert backend.requeue_quarantined("k")
        assert backend.load_task("k") == {"schema": 1, "x": 2}
        assert backend.list_quarantined() == []
        assert backend.lease_breaks("k") == 0
        assert backend.requeue_quarantined("k") is False
        assert backend.quarantine_task("never-published") is False

    def test_claim_info_reports_owner_and_age(self, backend):
        assert backend.claim_info() == {}
        assert backend.try_claim("k", "worker-x", ttl=60.0)
        info = backend.claim_info()
        assert list(info) == ["k"]
        assert info["k"]["owner"] == "worker-x"
        assert 0.0 <= info["k"]["age"] < 30.0

    def test_claim_age_single_key_lookup(self, backend):
        assert backend.claim_age("k") is None
        assert backend.try_claim("k", "worker-x", ttl=60.0)
        age = backend.claim_age("k")
        assert age is not None and 0.0 <= age < 30.0
        backend.release_claim("k")
        assert backend.claim_age("k") is None

    def test_racing_breakers_count_one_eviction_once(self, tmp_path):
        # the breaker that goes on to WIN the claim does the accounting;
        # a breaker that loses the race must not also bump the counter
        backend = JsonDirBackend(tmp_path / "store")
        assert backend.try_claim("k", "dead", ttl=0.05)
        time.sleep(0.1)
        # simulate the losing breaker: the lease vanished under it (a
        # peer broke it first) and the peer's fresh claim now exists
        (tmp_path / "store" / "claims" / "k.lease").unlink()
        assert backend.try_claim("k", "winner", ttl=0.05)
        assert backend.lease_breaks("k") == 0  # winner saw no stale lease
        # the normal single-breaker path still counts exactly once
        time.sleep(0.1)
        assert backend.try_claim("k", "breaker", ttl=0.05)
        assert backend.lease_breaks("k") == 1

    def test_queue_stats_aggregates(self, backend):
        empty = backend.queue_stats()
        assert empty["tasks"] == empty["claims"] == empty["quarantined"] == 0
        backend.save_task("a", {"schema": 1})
        backend.save_task("b", {"schema": 1})
        backend.try_claim("a", "w", ttl=60.0)
        backend.record_lease_break("b")
        backend.quarantine_task("b", reason="r")
        backend.save_point("p", [[1.0, 2.0, 3.0]])
        stats = backend.queue_stats()
        assert stats["points"] == 1 and stats["tasks"] == 1
        assert stats["claims"] == 1 and stats["oldest_claim_age"] >= 0.0
        assert stats["quarantined"] == 1 and stats["lease_breaks"] == 1
        assert stats["backend"] == backend.kind and stats["locator"] == backend.locator

    def test_iter_point_records_matches_per_key_loads(self, backend):
        for i in range(3):
            backend.save_point(f"k{i}", [[float(i)]], context={"run": i})
        records = dict(backend.iter_point_records())
        assert records == {k: backend.load_point_record(k) for k in backend.list_points()}


class TestCheckpointTable:
    def _link(self, base=None, version=10, points=None):
        payload = {
            "schema": 1,
            "kind": "exec-delta",
            "base": base,
            "base_version": 0,
            "version": version,
            "replay": {"schema": 1},
            "baselines": None,
            "samples": [],
        }
        if points is not None:
            payload["points"] = points
        return payload

    def test_put_is_conditional_first_writer_wins(self, backend):
        assert backend.get_checkpoint("k1") is None
        assert backend.put_checkpoint("k1", self._link(version=3)) is True
        # content keys mean racers carry identical payloads; the loser's
        # write is simply a no-op, never an overwrite
        assert backend.put_checkpoint("k1", self._link(version=99)) is False
        assert backend.get_checkpoint("k1")["version"] == 3
        assert backend.list_checkpoints() == ["k1"]

    def test_delete_and_stats(self, backend):
        backend.put_checkpoint("a", self._link())
        backend.put_checkpoint("b", self._link(base="a", version=20))
        backend.get_checkpoint("a")
        backend.get_checkpoint("missing")
        stats = backend.checkpoint_stats()
        assert set(stats) == {"count", "bytes"}
        assert stats["count"] == 2 and stats["bytes"] > 0
        backend.delete_checkpoint("a")
        backend.delete_checkpoint("a")  # idempotent
        assert backend.list_checkpoints() == ["b"]

    def test_queue_stats_carries_the_checkpoint_row(self, backend):
        assert backend.queue_stats()["checkpoints"].get("count", 0) == 0
        backend.put_checkpoint("a", self._link())
        stats = backend.queue_stats()["checkpoints"]
        assert stats["count"] == 1 and stats["bytes"] > 0

    def test_scope_stamps_the_groups_points(self, backend):
        scope = CheckpointScope(backend, points=["pA", "pB"])
        assert scope.put_checkpoint("k", self._link()) is True
        assert backend.get_checkpoint("k")["points"] == ["pA", "pB"]
        assert scope.get_checkpoint("k") == backend.get_checkpoint("k")
        bare = CheckpointScope(backend, points=[])
        bare.put_checkpoint("k2", self._link())
        assert "points" not in backend.get_checkpoint("k2")

    def test_gc_keeps_only_manifest_referenced_links(self, backend):
        backend.save_manifest("sw", {"points": ["pA", "pB"]})
        backend.put_checkpoint("live", self._link(points=["pA"]))
        backend.put_checkpoint("orphan", self._link(points=["gone"]))
        backend.put_checkpoint("unstamped", self._link())
        result = backend.gc_checkpoints()
        assert result == {"kept": 1, "removed": 2}
        assert backend.list_checkpoints() == ["live"]

    def test_migrate_carries_checkpoints_both_ways(self, tmp_path):
        src = JsonDirBackend(tmp_path / "j")
        src.put_checkpoint("k", self._link(points=["p"]))
        dst = SqliteBackend(tmp_path / "s.sqlite")
        counts = migrate_store(src, dst)
        assert counts["checkpoints"] == 1
        assert dst.get_checkpoint("k") == src.get_checkpoint("k")
        back = JsonDirBackend(tmp_path / "j2")
        assert migrate_store(dst, back)["checkpoints"] == 1
        assert back.get_checkpoint("k") == src.get_checkpoint("k")

    def test_compact_gcs_then_folds_checkpoints_away(self, tmp_path):
        store = JsonDirBackend(tmp_path / "st")
        store.save_manifest("sw", {"points": ["pA"]})
        store.put_checkpoint("live", self._link(points=["pA"]))
        store.put_checkpoint("orphan", self._link(points=["zz"]))
        compacted = store.compact()
        assert compacted.kind == "sqlite"
        assert not (tmp_path / "st" / "checkpoints").exists()
        # the fold prunes unreferenced links and carries the survivors
        assert compacted.list_checkpoints() == ["live"]


class TestSweepResume:
    def test_identical_rerun_hits_cache_entirely(self, tmp_path):
        store = JsonDirBackend(tmp_path)
        spec = tiny_spec()
        first = run_sweep(spec, runs=2, seed=3, store=store)
        assert "4 points computed, 0 from cache" in first.notes
        second = run_sweep(spec, runs=2, seed=3, store=store)
        assert "0 points computed, 4 from cache" in second.notes
        assert first.metrics == second.metrics
        assert first.x_values == second.x_values

    @pytest.mark.parametrize(
        ("make_spec", "runs", "notes"),
        [
            (tiny_spec, 2, "2 points computed, 2 from cache"),
            (paired_spec, 3, "4 points computed, 2 from cache"),
        ],
        ids=["unpaired", "paired"],
    )
    def test_extending_runs_recomputes_only_new_points(self, tmp_path, make_spec, runs, notes):
        store = JsonDirBackend(tmp_path)
        spec = make_spec()
        run_sweep(spec, runs=1, seed=3, store=store)
        # runs=1 wrote run 0 of both points; the grown sweep reuses them
        # (same seed derivation path) and plans only the new runs, a
        # paired sweep each as one whole warm row over both points.
        _, pending = claim_cached(plan_tasks(build_sweep(spec, runs=runs, seed=3)), store, True)
        new = [(i, r) for r in range(1, runs) for i in range(2)]
        assert sorted(ix for g in pending for ix in g.indices) == sorted(new)
        assert all(len(g.indices) == (2 if spec.paired_runs else 1) for g in pending)
        grown = run_sweep(spec, runs=runs, seed=3, store=store)
        assert notes in grown.notes
        assert series_json(grown) == series_json(run_sweep(spec, runs=runs, seed=3))

    @pytest.mark.parametrize("name", sorted(available_scenarios()))
    def test_growing_runs_on_every_scenario(self, tmp_path, name):
        # 1 -> 2 runs into one store: the grown sweep computes only run 1
        # of each point, reproduces the cold series and files one
        # fixed-budget manifest per sweep under its sweep key
        store = SqliteBackend(tmp_path / "s.sqlite")
        spec = shrunk_scenario(name)
        first = build_sweep(spec, runs=1, seed=3)
        grown = build_sweep(spec, runs=2, seed=3)
        run_sweep(spec, runs=1, seed=3, store=store)
        _, pending = claim_cached(plan_tasks(grown), store, True)
        npoints = len(grown.points)
        assert sorted(ix for g in pending for ix in g.indices) == [(i, 1) for i in range(npoints)]
        series = run_sweep(spec, runs=2, seed=3, store=store)
        assert f"{npoints} points computed, {npoints} from cache" in series.notes
        assert series.runs == 2
        assert series_json(series) == series_json(run_sweep(spec, runs=2, seed=3))
        assert sorted(store.list_manifests()) == sorted([first.sweep_key, grown.sweep_key])
        manifest = store.load_manifest(grown.sweep_key)
        assert manifest["runs"] == 2 and manifest["computed"] == npoints
        assert len(manifest["points"]) == 2 * npoints
        assert "adaptive" not in manifest

    def test_no_resume_recomputes(self, tmp_path):
        store = JsonDirBackend(tmp_path)
        spec = tiny_spec()
        run_sweep(spec, runs=1, seed=3, store=store)
        again = run_sweep(spec, runs=1, seed=3, store=store, resume=False)
        assert "2 points computed, 0 from cache" in again.notes

    def test_cache_is_spec_sensitive(self, tmp_path):
        store = JsonDirBackend(tmp_path)
        spec = tiny_spec()
        run_sweep(spec, runs=1, seed=3, store=store)
        other_seed = run_sweep(spec, runs=1, seed=4, store=store)
        assert "2 points computed" in other_seed.notes

    def test_points_persist_independently_of_sweep_completion(self, tmp_path):
        # Points are saved by the workers as they land (also across a
        # real process pool), so a sweep that dies before assembling its
        # series still leaves resumable artifacts: wiping the manifest
        # and series must not force recomputation.
        store = JsonDirBackend(tmp_path)
        spec = tiny_spec()
        run_sweep(spec, runs=1, seed=3, store=store, processes=2)
        for artifact in list(tmp_path.glob("sweeps/*")) + list(tmp_path.glob("series/*")):
            artifact.unlink()
        again = run_sweep(spec, runs=1, seed=3, store=store)
        assert "0 points computed, 2 from cache" in again.notes

    def test_manifest_written(self, tmp_path):
        store = JsonDirBackend(tmp_path)
        spec = tiny_spec()
        run_sweep(spec, runs=2, seed=3, store=store)
        sweep = build_sweep(spec, runs=2, seed=3)
        manifest = store.load_manifest(sweep.sweep_key)
        assert manifest is not None
        assert manifest["computed"] == 4 and manifest["cached"] == 0
        assert "core" not in manifest  # one conflict core: nothing to audit
        assert len(manifest["points"]) == 4
        for key in manifest["points"]:
            assert (tmp_path / "points" / f"{key}.json").exists()

    def test_cached_series_loadable_for_reports(self, tmp_path):
        from repro.analysis.report import panels_from_store, render_report

        store = JsonDirBackend(tmp_path)
        run_sweep(tiny_spec(), runs=1, seed=3, store=store)
        panels = panels_from_store(
            store,
            [("fig10-join", "Fig X", "max_color", "colors stay bounded")],
        )
        doc = render_report("T", "intro", panels)
        assert "fig10-join" in doc and "max_color" in doc
