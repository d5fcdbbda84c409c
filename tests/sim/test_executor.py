"""The pluggable execution layer: executors, worker drain, store claims."""

from __future__ import annotations

import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.sim.executor import (
    ProcessExecutor,
    SerialExecutor,
    WorkerExecutor,
    group_from_payload,
    group_payload,
    resolve_executor,
    run_worker,
)
from repro.sim.registry import get_scenario
from repro.sim.results import JsonDirBackend, SqliteBackend
from repro.sim.sweep import build_sweep, plan_tasks, run_sweep
from tests.conftest import per_value_json, series_json


def tiny_spec():
    return replace(
        get_scenario("fig10-join"),
        n=8,
        strategies=("Minim",),
        sweep_values=(6.0, 8.0),
    )


def paired_spec():
    return replace(
        get_scenario("fig11-power"),
        n=10,
        strategies=("Minim",),
        sweep_values=(2.0, 4.0),
    )


# ----------------------------------------------------------------------
# Cross-executor / cross-backend series identity (acceptance criterion)
# ----------------------------------------------------------------------
class TestExecutorParity:
    @pytest.fixture(scope="class")
    def reference(self):
        return run_sweep(tiny_spec(), runs=2, seed=3)

    @pytest.mark.parametrize("backend_cls", [JsonDirBackend, SqliteBackend])
    @pytest.mark.parametrize(
        "executor",
        [
            SerialExecutor(),
            ProcessExecutor(2),
            WorkerExecutor(max_wait=120.0),
            "serial",
            "worker",
        ],
        ids=["serial", "process2", "worker", "serial-name", "worker-name"],
    )
    def test_same_series_for_every_executor_and_backend(
        self, tmp_path, reference, backend_cls, executor
    ):
        store = backend_cls(tmp_path / "store")
        series = run_sweep(tiny_spec(), runs=2, seed=3, store=store, executor=executor)
        assert series.metrics == reference.metrics
        assert series.stderr == reference.stderr
        assert series.x_values == reference.x_values

    @pytest.mark.parametrize("backend_cls", [JsonDirBackend, SqliteBackend])
    def test_paired_sweep_parity_across_executors(self, tmp_path, backend_cls):
        # warm-start groups must not change results on any executor
        ref = per_value_json(paired_spec(), runs=2, seed=5)
        for sub, executor in (("a", "serial"), ("b", "worker")):
            store = backend_cls(tmp_path / sub)
            series = run_sweep(paired_spec(), runs=2, seed=5, store=store, executor=executor)
            assert series_json(series) == ref

    @pytest.mark.parametrize("executor", ["serial", "process", "worker"])
    def test_no_resume_recomputes_on_every_executor(self, tmp_path, executor):
        # resume=False must force recomputation even where artifacts
        # pre-exist — the worker queue may not serve them as "done"
        store = SqliteBackend(tmp_path / "store.sqlite")
        run_sweep(tiny_spec(), runs=1, seed=3, store=store)
        again = run_sweep(
            tiny_spec(), runs=1, seed=3, store=store, resume=False, executor=executor
        )
        assert "2 points computed, 0 from cache" in again.notes

    def test_forced_backend_kind_survives_process_fanout(self, tmp_path):
        # a JSON store whose directory happens to carry a sqlite-ish
        # suffix: pool children must re-open it as JSON, not re-sniff
        from repro.sim.results import open_backend

        store = open_backend(tmp_path / "weird.sqlite", "json")
        assert store.kind == "json"
        series = run_sweep(tiny_spec(), runs=2, seed=3, store=store, processes=2)
        ref = run_sweep(tiny_spec(), runs=2, seed=3)
        assert series.metrics == ref.metrics
        assert (tmp_path / "weird.sqlite" / "points").is_dir()

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            run_sweep(tiny_spec(), runs=1, executor="threads")

    def test_worker_executor_requires_store(self):
        with pytest.raises(ConfigurationError, match="results store"):
            run_sweep(tiny_spec(), runs=1, executor="worker")

    def test_resolution_defaults(self, monkeypatch):
        import os

        assert resolve_executor(None, None).name == "serial"
        assert resolve_executor(None, 1).name == "serial"
        assert resolve_executor(None, 4).name == "process"
        custom = WorkerExecutor()
        assert resolve_executor(custom, None) is custom
        assert resolve_executor("process", 2).processes == 2
        # explicit "process" with no pool size means the whole machine;
        # a one-CPU machine (or an unknown count) is a serial loop
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert resolve_executor("process", None).processes == 3
        for cpus in (1, None):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            assert isinstance(resolve_executor("process", None), SerialExecutor)

    @pytest.mark.parametrize("processes", [1, 0, -1])
    def test_pool_of_one_or_fewer_is_serial(self, processes):
        assert isinstance(resolve_executor("process", processes), SerialExecutor)
        with pytest.raises(ConfigurationError, match="at least 2 processes"):
            ProcessExecutor(processes)

    def test_pool_of_one_computes_in_process(self, tmp_path, monkeypatch):
        # a serial sweep computes on the caller's backend; the pool
        # target's per-group reopen never runs
        import repro.sim.executor as executor_mod

        opened = []
        real_open = executor_mod.open_backend

        def counting_open(*args, **kwargs):
            opened.append(args)
            return real_open(*args, **kwargs)

        monkeypatch.setattr(executor_mod, "open_backend", counting_open)
        kwargs = dict(runs=2, strategies=["Minim"])
        series = run_sweep(
            "uniform-churn",
            executor="process",
            processes=1,
            store=SqliteBackend(tmp_path / "s.sqlite"),
            **kwargs,
        )
        assert opened == []
        assert series_json(series) == series_json(run_sweep("uniform-churn", **kwargs))


# ----------------------------------------------------------------------
# Task payload round trip
# ----------------------------------------------------------------------
class TestTaskPayload:
    def test_group_round_trips_through_json(self):
        import json

        groups = plan_tasks(build_sweep(paired_spec(), runs=2, seed=5))
        for group in groups:
            payload = json.loads(json.dumps(group_payload(group)))
            rebuilt = group_from_payload(payload)
            assert rebuilt.indices == group.indices
            assert rebuilt.points == group.points
            assert rebuilt.keys == group.keys
            assert rebuilt.warm == group.warm
            assert rebuilt.key == group.key

    def test_legacy_warm_key_is_ignored(self):
        # descriptors written while ``warm`` was a stored field carry it;
        # they still decode, and warmth follows the member count
        import json

        for group in plan_tasks(build_sweep(tiny_spec(), runs=1, seed=3)) + plan_tasks(
            build_sweep(paired_spec(), runs=1, seed=5)
        ):
            payload = json.loads(json.dumps(group_payload(group)))
            assert "warm" not in payload
            payload["warm"] = True
            rebuilt = group_from_payload(payload)
            assert rebuilt.key == group.key
            assert rebuilt.warm == (len(group.indices) > 1)

    def test_malformed_payload_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed task descriptor"):
            group_from_payload({"schema": 1, "indices": [[0, 0]]})

    def test_warm_group_members_persist_as_they_land(self, tmp_path, monkeypatch):
        # a crash mid-group must not lose the members already computed
        from repro.sim.executor import _execute_group_task, group_payload
        from repro.sim.timeline import _ExecState

        backend = JsonDirBackend(tmp_path / "store")
        (group,) = plan_tasks(build_sweep(paired_spec(), runs=1, seed=5))
        assert group.warm and len(group.points) == 2
        real = _ExecState.result
        calls = []

        def dying_result(self, measure):
            if len(calls) == 1:
                raise RuntimeError("simulated crash on member 2")
            calls.append(1)
            return real(self, measure)

        monkeypatch.setattr(_ExecState, "result", dying_result)
        with pytest.raises(RuntimeError, match="simulated crash"):
            _execute_group_task((group_payload(group), (backend.locator, backend.kind)))
        assert backend.load_point(group.keys[0]) is not None  # member 1 survived
        assert backend.load_point(group.keys[1]) is None
        monkeypatch.setattr(_ExecState, "result", real)
        resumed = run_sweep(paired_spec(), runs=1, seed=5, store=backend)
        assert "1 points computed, 1 from cache" in resumed.notes


# ----------------------------------------------------------------------
# The worker loop
# ----------------------------------------------------------------------
def _publish(backend, spec, runs=1, seed=3):
    groups = plan_tasks(build_sweep(spec, runs=runs, seed=seed))
    for group in groups:
        backend.save_task(group.key, group_payload(group))
    return groups


class TestWorkerLoop:
    @pytest.mark.parametrize("backend_cls", [JsonDirBackend, SqliteBackend])
    def test_run_worker_drains_queue(self, tmp_path, backend_cls):
        backend = backend_cls(tmp_path / "store")
        groups = _publish(backend, tiny_spec())
        computed = run_worker(backend, once=True)
        assert computed == len(groups)
        assert backend.pending_task_keys() == []
        assert backend.list_claims() == []
        for group in groups:
            for key in group.keys:
                assert backend.load_point(key) is not None

    def test_worker_skips_already_computed_tasks(self, tmp_path):
        backend = SqliteBackend(tmp_path / "store")
        groups = _publish(backend, tiny_spec())
        run_worker(backend, once=True)
        for group in groups:  # republish finished work
            backend.save_task(group.key, group_payload(group))
        assert run_worker(backend, once=True) == 0  # cleaned up, not recomputed
        assert backend.pending_task_keys() == []

    def test_worker_quarantines_poison_task_and_drains_the_rest(self, tmp_path, capsys):
        backend = SqliteBackend(tmp_path / "store")
        groups = _publish(backend, tiny_spec())
        backend.save_task("poison", {"schema": 99, "garbage": True})
        computed = run_worker(backend, once=True)
        assert computed == len(groups)
        # the undecodable task is parked durably, not rescanned forever
        assert backend.pending_task_keys() == []
        assert backend.list_quarantined() == ["poison"]
        assert "undecodable" in backend.load_quarantined("poison")["reason"]
        assert "quarantined undecodable task poison" in capsys.readouterr().out
        # an operator can release it back into the queue after inspection
        assert backend.requeue_quarantined("poison")
        assert backend.pending_task_keys() == ["poison"]

    def test_worker_quarantines_churned_task_instead_of_claiming(self, tmp_path, capsys):
        backend = SqliteBackend(tmp_path / "store")
        groups = _publish(backend, tiny_spec())
        churned = groups[0].key
        for _ in range(3):  # three claimants died holding this group
            backend.record_lease_break(churned)
        computed = run_worker(backend, once=True, quarantine_after=3)
        assert computed == len(groups) - 1  # the poison group was not computed
        assert backend.list_quarantined() == [churned]
        assert "broken leases" in backend.load_quarantined(churned)["reason"]
        assert f"quarantined task {churned}" in capsys.readouterr().out
        for key in groups[0].keys:
            assert backend.load_point(key) is None

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_quarantine_disabled_with_non_positive_threshold(self, tmp_path, threshold):
        backend = SqliteBackend(tmp_path / "store")
        groups = _publish(backend, tiny_spec())
        for _ in range(5):
            backend.record_lease_break(groups[0].key)
        computed = run_worker(backend, once=True, quarantine_after=threshold)
        assert computed == len(groups)
        assert backend.list_quarantined() == []

    def test_completed_group_is_cleaned_up_not_quarantined(self, tmp_path):
        # a claimant that saved every point but died before delete_task
        # leaves a churned-looking descriptor over finished work — the
        # next scan must clean it up, not park it as poison
        backend = SqliteBackend(tmp_path / "store")
        groups = _publish(backend, tiny_spec())
        dead = groups[0]
        from repro.sim.executor import _compute_and_save

        _compute_and_save(dead, backend, "doomed-worker")
        for _ in range(3):  # ...and its predecessors all broke leases
            backend.record_lease_break(dead.key)
        computed = run_worker(backend, once=True, quarantine_after=3)
        assert computed == len(groups) - 1  # finished group only cleaned up
        assert backend.list_quarantined() == []
        assert backend.pending_task_keys() == []

    def test_live_claim_blocks_quarantine(self, tmp_path):
        # a healthy claimant mid-computation must not have the task (and
        # its claim) yanked away just because *previous* holders died
        from repro.sim.executor import _maybe_quarantine

        backend = SqliteBackend(tmp_path / "store")
        groups = _publish(backend, tiny_spec())
        gkey = groups[0].key
        for _ in range(3):
            backend.record_lease_break(gkey)
        assert backend.try_claim(gkey, "healthy-worker", ttl=60.0)
        assert not _maybe_quarantine(backend, gkey, 3)
        assert backend.list_claims() == [gkey]  # the live claim survived
        backend.release_claim(gkey)
        assert _maybe_quarantine(backend, gkey, 3)
        assert backend.list_quarantined() == [gkey]

    def test_payload_schema_is_gated(self):
        groups = plan_tasks(build_sweep(tiny_spec(), runs=1, seed=3))
        payload = group_payload(groups[0])
        payload["schema"] = 2
        with pytest.raises(ConfigurationError, match="schema 2"):
            group_from_payload(payload)

    def test_worker_idle_exit(self, tmp_path):
        backend = JsonDirBackend(tmp_path / "store")
        start = time.monotonic()
        assert run_worker(backend, poll=0.01, max_idle=0.05) == 0
        assert time.monotonic() - start < 5.0

    def test_worker_exits_after_max_idle_even_with_finished_history(self, tmp_path):
        # idle means "no pending work", not "the store is empty": a
        # drained queue with points/quarantine history must still exit
        backend = SqliteBackend(tmp_path / "store")
        _publish(backend, tiny_spec())
        run_worker(backend, once=True)
        start = time.monotonic()
        assert run_worker(backend, poll=0.01, max_idle=0.1) == 0
        assert time.monotonic() - start < 5.0

    def test_late_published_group_is_picked_up_within_poll(self, tmp_path):
        # a group published mid-drain (another sweep joining the store)
        # must be found by the poll loop before the idle timer fires
        import threading

        backend = SqliteBackend(tmp_path / "store")
        groups = plan_tasks(build_sweep(tiny_spec(), runs=1, seed=3))

        def publish_later():
            time.sleep(0.3)
            for group in groups:
                backend.save_task(group.key, group_payload(group))

        publisher = threading.Thread(target=publish_later)
        publisher.start()
        try:
            computed = run_worker(backend, poll=0.05, max_idle=3.0)
        finally:
            publisher.join()
        assert computed == len(groups)
        assert backend.pending_task_keys() == []

    def test_computed_points_carry_worker_provenance(self, tmp_path):
        backend = SqliteBackend(tmp_path / "store")
        groups = _publish(backend, tiny_spec())
        run_worker(backend, once=True, owner="worker-test-7")
        for group in groups:
            context = backend.load_point_record(group.keys[0])["context"]
            assert context["worker"] == "worker-test-7"
            assert context["saved_at"] > 0
            assert "core" not in context  # one conflict core: nothing to audit

    @staticmethod
    def _spy_renewals(backend, monkeypatch) -> list:
        calls = []
        renew = backend.renew_claim

        def spy(key, owner):
            calls.append((key, owner))
            return renew(key, owner)

        monkeypatch.setattr(backend, "renew_claim", spy)
        return calls

    def test_worker_renews_its_lease_once_per_landed_member(self, tmp_path, monkeypatch):
        backend = SqliteBackend(tmp_path / "store")
        (group,) = _publish(backend, paired_spec(), runs=1, seed=5)
        assert len(group.indices) == 2
        calls = self._spy_renewals(backend, monkeypatch)
        assert run_worker(backend, once=True, owner="w-renew") == 1
        assert calls == [(group.key, "w-renew")] * 2

    def test_orchestrator_drain_renews_once_per_landed_member(self, tmp_path, monkeypatch):
        import os

        backend = SqliteBackend(tmp_path / "store")
        (group,) = plan_tasks(build_sweep(paired_spec(), runs=1, seed=5))
        calls = self._spy_renewals(backend, monkeypatch)
        run_sweep(paired_spec(), runs=1, seed=5, store=backend, executor=WorkerExecutor())
        assert calls == [(group.key, f"orchestrator-{os.getpid()}")] * 2
        # without resume the orchestrator computes unclaimed: nothing to renew
        calls.clear()
        run_sweep(
            paired_spec(), runs=1, seed=5, store=backend, executor="worker", resume=False
        )
        assert calls == []

    def test_worker_executor_fails_loudly_on_quarantined_group(self, tmp_path):
        # the orchestrator must not wait forever on a parked group — it
        # points the operator at `store requeue` instead
        backend = SqliteBackend(tmp_path / "store")
        spec = tiny_spec()
        groups = plan_tasks(build_sweep(spec, runs=1, seed=3))
        for _ in range(3):
            backend.record_lease_break(groups[0].key)
        with pytest.raises(ConfigurationError, match="store requeue"):
            run_sweep(spec, runs=1, seed=3, store=backend, executor=WorkerExecutor(max_wait=30.0))
        assert backend.list_quarantined() == [groups[0].key]

    def test_two_worker_processes_share_one_store(self, tmp_path):
        # The ISSUE's distributed story end to end: the orchestrator
        # publishes, two real `minim-cdma worker` processes drain, and a
        # subsequent resume run serves everything from cache.
        backend = SqliteBackend(tmp_path / "store.sqlite")
        spec = tiny_spec()
        _publish(backend, spec, runs=2, seed=3)
        # spawned interpreters must see the package even when the suite
        # runs via pyproject's pythonpath=["src"] without an install
        import os
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src_dir = str(Path(repro.__file__).parent.parent)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "worker",
                    "--results",
                    str(backend.path),
                    "--max-idle",
                    "1",
                    "--poll",
                    "0.05",
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            for _ in range(2)
        ]
        outputs = [p.communicate(timeout=120)[0] for p in procs]
        assert all(p.returncode == 0 for p in procs), outputs
        assert backend.pending_task_keys() == []
        series = run_sweep(spec, runs=2, seed=3, store=backend)
        assert "0 points computed, 4 from cache" in series.notes
        # all 4 groups were computed, duplicates allowed (at-least-once:
        # a worker may re-claim in the window between a peer's release
        # and task deletion; saves are idempotent so this is safe)
        total = sum(int(out.split("computed ")[1].split(" ")[0]) for out in outputs)
        assert 4 <= total <= 8


# ----------------------------------------------------------------------
# Store-backed checkpoint links: cross-process prefix sharing
# ----------------------------------------------------------------------
class TestWorkerCheckpointLinks:
    @pytest.mark.parametrize("backend_cls", [JsonDirBackend, SqliteBackend])
    def test_worker_drain_stores_delta_links(self, tmp_path, backend_cls):
        # a warm group walked by a worker persists its boundary states
        # as delta links in the store's checkpoint table
        backend = backend_cls(tmp_path / "store")
        _publish(backend, paired_spec(), runs=1, seed=3)
        assert run_worker(backend, once=True) >= 1
        assert backend.checkpoint_stats()["count"] > 0

    def test_deeper_sweep_resumes_from_another_workers_links(self, tmp_path, monkeypatch):
        # the cross-process pickup story: worker A drains a paired sweep,
        # worker B (a fresh process state — nothing warm in memory) drains
        # a deeper sweep over the same axis and serves the shared prefix
        # from A's stored links instead of replaying it
        backend = SqliteBackend(tmp_path / "store.sqlite")
        spec = paired_spec()
        _publish(backend, spec, runs=1, seed=3)
        run_worker(backend, once=True)
        hits = []
        read = backend.get_checkpoint

        def spy(key):
            record = read(key)
            if record is not None:
                hits.append(key)
            return record

        monkeypatch.setattr(backend, "get_checkpoint", spy)
        deeper = replace(spec, sweep_values=(2.0, 4.0, 6.0, 8.0))
        _publish(backend, deeper, runs=1, seed=3)
        run_worker(backend, once=True)
        assert hits  # worker B read links worker A stored
        series = run_sweep(deeper, runs=1, seed=3, store=backend)
        ref = run_sweep(deeper, runs=1, seed=3)
        assert series.metrics == ref.metrics
        assert series.stderr == ref.stderr

    def test_cold_groups_never_write_links(self, tmp_path):
        # unpaired sweeps plan singleton (cold) groups; serializing their
        # boundaries would be pure overhead, so the scope stays off
        backend = SqliteBackend(tmp_path / "store.sqlite")
        groups = _publish(backend, tiny_spec(), runs=1, seed=3)
        assert all(not g.warm for g in groups)
        run_worker(backend, once=True)
        assert backend.checkpoint_stats()["count"] == 0


# ----------------------------------------------------------------------
# Claim + save races across real processes (satellite: store concurrency)
# ----------------------------------------------------------------------
def _claim_once(args):
    locator, kind, key, owner = args
    from repro.sim.results import open_backend

    return open_backend(locator, kind).try_claim(key, owner)


def _save_same_point(args):
    locator, kind, key, payload = args
    from repro.sim.results import open_backend

    backend = open_backend(locator, kind)
    for _ in range(20):
        backend.save_point(key, payload, context={"race": True})
    return backend.load_point(key)


class TestStoreConcurrency:
    @pytest.mark.parametrize("backend_cls", [JsonDirBackend, SqliteBackend])
    def test_claim_is_exclusive_across_processes(self, tmp_path, backend_cls):
        backend = backend_cls(tmp_path / "store")
        backend.save_task("k1", {"x": 1})  # materialize the store
        args = [(backend.locator, backend.kind, "k1", f"owner-{i}") for i in range(4)]
        with ProcessPoolExecutor(max_workers=4) as pool:
            wins = list(pool.map(_claim_once, args))
        assert sum(wins) == 1

    @pytest.mark.parametrize("backend_cls", [JsonDirBackend, SqliteBackend])
    def test_concurrent_saves_of_one_point_stay_consistent(self, tmp_path, backend_cls):
        backend = backend_cls(tmp_path / "store")
        payload = [[1.0, 2.0, 3.0]]
        args = [(backend.locator, backend.kind, "pt", payload)] * 4
        with ProcessPoolExecutor(max_workers=4) as pool:
            seen = list(pool.map(_save_same_point, args))
        assert all(s == payload for s in seen)
        assert backend.load_point("pt") == payload

    @pytest.mark.parametrize("backend_cls", [JsonDirBackend, SqliteBackend])
    def test_stale_claim_is_broken(self, tmp_path, backend_cls):
        backend = backend_cls(tmp_path / "store")
        assert backend.try_claim("k", "dead-worker", ttl=0.05)
        assert not backend.try_claim("k", "live-worker", ttl=60.0)
        time.sleep(0.1)
        assert backend.try_claim("k", "live-worker", ttl=0.05)

    @pytest.mark.parametrize("backend_cls", [JsonDirBackend, SqliteBackend])
    def test_renew_keeps_a_lease_fresh(self, tmp_path, backend_cls):
        backend = backend_cls(tmp_path / "store")
        assert backend.try_claim("k", "slow-worker", ttl=1.0)
        time.sleep(0.6)
        backend.renew_claim("k", "slow-worker")
        time.sleep(0.6)
        # 1.2s since claim but only 0.6s since renewal: still held
        assert not backend.try_claim("k", "thief", ttl=1.0)

    @pytest.mark.parametrize("backend_cls", [JsonDirBackend, SqliteBackend])
    def test_renew_by_non_owner_or_absent_is_noop(self, tmp_path, backend_cls):
        backend = backend_cls(tmp_path / "store")
        backend.renew_claim("never-claimed", "anyone")  # must not raise
        assert backend.try_claim("k", "owner", ttl=0.2)
        backend.renew_claim("k", "impostor")
        time.sleep(0.3)
        # the impostor's renew must not have extended the owner's lease
        assert backend.try_claim("k", "next", ttl=0.2)

    @pytest.mark.parametrize("backend_cls", [JsonDirBackend, SqliteBackend])
    def test_release_is_idempotent(self, tmp_path, backend_cls):
        backend = backend_cls(tmp_path / "store")
        backend.release_claim("never-claimed")
        assert backend.try_claim("k", "o")
        backend.release_claim("k")
        backend.release_claim("k")
        assert backend.try_claim("k", "o2")
