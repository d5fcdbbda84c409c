"""The adaptive run-count control plane: targets, controller, sweep loop."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.control import (
    PrecisionTarget,
    RunController,
    resolve_precision,
    z_score,
)
from repro.sim.registry import get_scenario
from repro.sim.results import JsonDirBackend, SqliteBackend
from repro.sim.sweep import build_sweep, plan_additional_tasks, plan_tasks, run_sweep


def noisy_spec():
    """A small, noisy smoke sweep (variance large relative to means)."""
    return replace(
        get_scenario("paper-join"),
        n=10,
        strategies=("Minim",),
        sweep_values=(6.0, 8.0, 10.0),
    )


def paired_spec():
    return replace(
        get_scenario("fig11-power"),
        n=10,
        strategies=("Minim",),
        sweep_values=(2.0, 4.0),
    )


SMOKE_TARGET = PrecisionTarget(rel=0.5, abs_tol=2.0, min_runs=2, max_runs=12)


class TestZScore:
    def test_standard_quantiles(self):
        assert z_score(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert z_score(0.99) == pytest.approx(2.575829, abs=1e-5)
        assert z_score(0.6827) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_confidence_bounds(self, bad):
        with pytest.raises(ConfigurationError, match="confidence"):
            z_score(bad)


class TestPrecisionTarget:
    def test_needs_at_least_one_criterion(self):
        with pytest.raises(ConfigurationError, match="criterion"):
            PrecisionTarget(rel=None, abs_tol=None)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"rel": -0.1}, "rel"),
            ({"abs_tol": 0.0}, "abs_tol"),
            ({"confidence": 1.5}, "confidence"),
            ({"min_runs": 0}, "min_runs"),
            ({"min_runs": 10, "max_runs": 5}, "max_runs"),
            ({"growth": 1.0}, "growth"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            PrecisionTarget(**kwargs)

    def test_abs_only_target_is_valid(self):
        target = PrecisionTarget(rel=None, abs_tol=1.0)
        assert target.rel is None and target.abs_tol == 1.0


class TestRunController:
    def test_single_run_is_never_converged(self):
        # the satellite guard: n=1 has no variance estimate, so it must
        # read as "needs more runs", not "converged at stderr 0"
        ctrl = RunController(PrecisionTarget(rel=0.5, abs_tol=100.0))
        assert not ctrl.converged(np.zeros((1, 1, 3)))

    def test_zero_variance_converges_at_min_runs(self):
        ctrl = RunController(PrecisionTarget(rel=0.05))
        assert ctrl.converged(np.full((2, 1, 3), 7.0))

    def test_noisy_cells_block_convergence(self):
        ctrl = RunController(PrecisionTarget(rel=0.05, confidence=0.95))
        block = np.zeros((4, 1, 3))
        block[:, 0, 0] = [1.0, 9.0, 2.0, 8.0]  # huge CI vs mean 5
        block[:, 0, 1:] = 5.0
        assert not ctrl.converged(block)

    def test_abs_floor_rescues_near_zero_means(self):
        ctrl = RunController(PrecisionTarget(rel=0.05, abs_tol=10.0))
        block = np.zeros((3, 1, 3))
        block[:, 0, 0] = [-0.1, 0.1, 0.0]  # mean ~0: rel alone never converges
        assert ctrl.converged(block)

    def test_plan_grows_unconverged_points_geometrically(self):
        # predict=False keeps the pre-prediction schedule: batch factor
        # growth, converged points untouched
        ctrl = RunController(PrecisionTarget(rel=0.01, max_runs=32, growth=2.0, predict=False))
        noisy = np.array([[1.0], [100.0]]).reshape(2, 1, 1)
        flat = np.full((2, 1, 1), 5.0)
        want = ctrl.plan([noisy, flat], [2, 2])
        assert want == {0: 4}  # converged point untouched, other doubled

    def test_plan_jumps_to_the_variance_prediction(self):
        ctrl = RunController(PrecisionTarget(rel=None, abs_tol=0.5, max_runs=64))
        block = np.array([[1.0], [3.0]]).reshape(2, 1, 1)  # sd=sqrt(2), mean 2
        predicted = math.ceil((z_score(0.95) * math.sqrt(2.0) / 0.5) ** 2)
        assert ctrl.required_runs(block) == predicted
        assert ctrl.plan([block], [2]) == {0: predicted}  # straight jump, one pass

    def test_prediction_never_undershoots_the_geometric_floor(self):
        # a barely-unconverged point predicts ~n runs; growth still
        # guarantees progress
        ctrl = RunController(PrecisionTarget(rel=None, abs_tol=1.0, max_runs=64, growth=2.0))
        block = np.array([[4.4], [5.6]]).reshape(2, 1, 1)  # half-width just over 1.0
        assert ctrl.required_runs(block) <= 4
        assert ctrl.plan([block], [2]) == {0: 4}  # floored at ceil(2 * growth)

    def test_prediction_handles_zero_spread_and_zero_tolerance(self):
        ctrl = RunController(PrecisionTarget(rel=0.05, max_runs=32))
        assert ctrl.required_runs(np.full((3, 1, 1), 7.0)) == 1  # no variance
        # zero mean under a rel-only target can never converge: predict the cap
        dead = np.array([[-1.0], [1.0]]).reshape(2, 1, 1)
        assert ctrl.required_runs(dead) == 32

    def test_constant_zero_cell_does_not_burn_the_budget(self):
        # regression: a metric identically 0.0 across runs (sd=0, tol=0
        # under a rel-only target) is converged (half-width 0 <= 0) and
        # must not drag the prediction to max_runs
        ctrl = RunController(PrecisionTarget(rel=0.2, max_runs=32))
        block = np.array([[0.0, 7.5], [0.0, 12.5], [0.0, 10.0]]).reshape(3, 1, 2)
        noisy_only = np.array([[7.5], [12.5], [10.0]]).reshape(3, 1, 1)
        assert ctrl.required_runs(block) == ctrl.required_runs(noisy_only)
        assert ctrl.plan([block], [3]) == ctrl.plan([noisy_only], [3])
        assert ctrl.plan([block], [3])[0] < 32

    def test_plan_respects_the_hard_cap(self):
        ctrl = RunController(PrecisionTarget(rel=0.0001, max_runs=6, growth=2.0))
        noisy = np.array([[1.0], [100.0], [3.0], [80.0], [2.0]]).reshape(5, 1, 1)
        want = ctrl.plan([noisy], [5])
        assert want == {0: 6}
        assert ctrl.plan([noisy], [6]) == {}  # at the cap: left alone

    def test_plan_paired_raises_whole_rows(self):
        ctrl = RunController(PrecisionTarget(rel=0.0001, max_runs=16))
        noisy = np.array([[1.0], [100.0]]).reshape(2, 1, 1)
        flat = np.full((2, 1, 1), 5.0)
        want = ctrl.plan([noisy, flat], [2, 2], paired=True)
        # the noisy point's prediction hits the cap; pairing raises the
        # converged point with it
        assert want == {0: 16, 1: 16}

    def test_plan_block_count_mismatch_rejected(self):
        ctrl = RunController()
        with pytest.raises(ConfigurationError, match="sample block"):
            ctrl.plan([np.zeros((2, 1, 3))], [2, 2])

    def test_resolve_precision_forms(self):
        assert resolve_precision(None) is None
        ctrl = RunController()
        assert resolve_precision(ctrl) is ctrl
        assert resolve_precision(PrecisionTarget(rel=0.1)).target.rel == 0.1
        assert resolve_precision(0.2).target.rel == 0.2
        with pytest.raises(ConfigurationError, match="not a precision target"):
            resolve_precision("tight")
        with pytest.raises(ConfigurationError, match="not a precision target"):
            resolve_precision(True)


class TestSeedPrefixStability:
    def test_extending_runs_preserves_existing_seeds(self):
        # the invariant incremental planning is built on: run r's seed
        # never depends on how many runs were planned
        for spec in (noisy_spec(), paired_spec()):
            small = build_sweep(spec, runs=2, seed=9)
            large = build_sweep(spec, runs=7, seed=9)
            for i in range(len(small.points)):
                for r in range(2):
                    a, b = small.seeds[i][r], large.seeds[i][r]
                    assert (a.entropy, a.spawn_key) == (b.entropy, b.spawn_key)

    def test_plan_additional_tasks_emits_only_new_runs(self):
        sweep = build_sweep(noisy_spec(), runs=2, seed=9)
        extra = plan_additional_tasks(sweep, [2, 2, 2], {0: 4, 2: 3})
        indices = sorted(ix for g in extra for ix in g.indices)
        assert indices == [(0, 2), (0, 3), (2, 2)]
        base_keys = {k for g in plan_tasks(sweep) for k in g.keys}
        assert base_keys.isdisjoint(k for g in extra for k in g.keys)

    def test_plan_additional_tasks_keeps_warm_rows_whole(self):
        sweep = build_sweep(paired_spec(), runs=1, seed=5)
        extra = plan_additional_tasks(sweep, [1, 1], {0: 3, 1: 3})
        assert len(extra) == 2  # one warm row group per new run
        assert all(g.warm and len(g.indices) == 2 for g in extra)
        assert sorted(g.indices[0][1] for g in extra) == [1, 2]


class TestAdaptiveRunSweep:
    @pytest.mark.parametrize("backend_cls", [JsonDirBackend, SqliteBackend])
    def test_reaches_target_under_the_fixed_budget_and_recaches(self, tmp_path, backend_cls):
        # the ISSUE acceptance criterion end to end
        store = backend_cls(tmp_path / "store")
        spec = noisy_spec()
        ctrl = RunController(SMOKE_TARGET)
        first = run_sweep(spec, runs=2, seed=3, store=store, precision=ctrl)
        assert ctrl.total_runs is not None
        assert ctrl.total_runs < SMOKE_TARGET.max_runs * len(spec.sweep_values)
        assert max(ctrl.runs_per_point) <= SMOKE_TARGET.max_runs
        # re-run: full cache hit, identical decisions, identical series
        again_ctrl = RunController(SMOKE_TARGET)
        again = run_sweep(spec, runs=2, seed=3, store=store, precision=again_ctrl)
        assert "0 points computed" in again.notes
        assert again_ctrl.runs_per_point == ctrl.runs_per_point
        a, b = first.to_dict(), again.to_dict()
        a.pop("notes"), b.pop("notes")  # notes records the invocation split
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_run_savings_over_the_fixed_budget(self):
        # a tiny paper-join sweep noisy enough that the growth loop has
        # to iterate: at large n every point would converge at the
        # starting budget and the ratio would be the constant
        # max_runs/min_runs, blind to controller regressions
        spec = replace(noisy_spec(), n=16)
        target = PrecisionTarget(rel=0.5, abs_tol=2.0, min_runs=2, max_runs=12)
        ctrl = RunController(target)
        run_sweep(spec, runs=2, seed=2001, precision=ctrl)
        fixed = target.max_runs * len(spec.sweep_values)
        assert ctrl.total_runs > target.min_runs * len(spec.sweep_values)
        assert fixed / ctrl.total_runs >= 1.2  # 36/26 at the time of writing

    def test_adaptive_run_counts_are_seed_deterministic(self):
        # the run-savings ratio above is a fixed count, not a timing:
        # the same seed must grow the same points by the same passes
        spec = replace(noisy_spec(), n=16)
        target = PrecisionTarget(rel=0.5, abs_tol=2.0, min_runs=2, max_runs=12)
        totals = []
        for _ in range(2):
            ctrl = RunController(target)
            run_sweep(spec, runs=2, seed=2001, precision=ctrl)
            totals.append(ctrl.total_runs)
        assert totals[0] == totals[1]

    def test_notes_and_manifest_record_the_adaptive_outcome(self, tmp_path):
        store = SqliteBackend(tmp_path / "s.sqlite")
        ctrl = RunController(SMOKE_TARGET)
        series = run_sweep(noisy_spec(), runs=2, seed=3, store=store, precision=ctrl)
        assert f"adaptive: {ctrl.total_runs} total runs" in series.notes
        manifests = [store.load_manifest(k) for k in store.list_manifests()]
        adaptive = [m for m in manifests if "adaptive" in m]
        assert len(adaptive) == 1
        block = adaptive[0]["adaptive"]
        assert block["runs_per_point"] == ctrl.runs_per_point
        assert block["total_runs"] == ctrl.total_runs
        assert block["target"]["rel"] == SMOKE_TARGET.rel
        assert len(adaptive[0]["points"]) == ctrl.total_runs

    def test_adaptive_and_fixed_manifests_keyed_apart(self, tmp_path):
        store = SqliteBackend(tmp_path / "s.sqlite")
        spec = noisy_spec()
        run_sweep(spec, runs=2, seed=3, store=store)
        run_sweep(spec, runs=2, seed=3, store=store, precision=RunController(SMOKE_TARGET))
        assert len(store.list_manifests()) == 2

    def test_paired_sweep_stays_uniform_and_warm(self, tmp_path):
        store = SqliteBackend(tmp_path / "s.sqlite")
        ctrl = RunController(PrecisionTarget(rel=0.3, abs_tol=1.0, max_runs=8))
        series = run_sweep(paired_spec(), runs=2, seed=5, store=store, precision=ctrl)
        assert len(set(ctrl.runs_per_point)) == 1
        assert series.runs == ctrl.runs_per_point[0]
        # parity with the fixed-count equivalent at the same run count
        fixed = run_sweep(paired_spec(), runs=ctrl.runs_per_point[0], seed=5)
        assert series.metrics == fixed.metrics
        assert series.stderr == fixed.stderr

    def test_prediction_converges_in_fewer_passes_than_geometric(self):
        # the satellite criterion: jumping to n ∝ (z·σ/tol)² reaches the
        # same final budget in fewer plan→collect passes than doubling
        spec = noisy_spec()
        jump = RunController(PrecisionTarget(rel=0.0001, min_runs=2, max_runs=16))
        run_sweep(spec, runs=2, seed=3, precision=jump)
        slow = RunController(
            PrecisionTarget(rel=0.0001, min_runs=2, max_runs=16, predict=False)
        )
        run_sweep(spec, runs=2, seed=3, precision=slow)
        assert jump.runs_per_point == slow.runs_per_point == [16, 16, 16]
        assert jump.passes == 1  # straight to the cap
        assert slow.passes == 3  # 2 -> 4 -> 8 -> 16
        assert jump.passes < slow.passes

    def test_tight_target_stops_at_the_cap(self):
        ctrl = RunController(PrecisionTarget(rel=0.0001, min_runs=2, max_runs=4))
        run_sweep(noisy_spec(), runs=2, seed=3, precision=ctrl)
        assert ctrl.runs_per_point == [4, 4, 4]

    def test_adaptive_from_single_run_start(self):
        # n=1 points must grow (never "converge" on zero variance)
        ctrl = RunController(PrecisionTarget(rel=0.5, abs_tol=2.0, max_runs=4))
        run_sweep(noisy_spec(), runs=1, seed=3, precision=ctrl)
        assert all(n >= 2 for n in ctrl.runs_per_point)

    def test_delta_rounds_scenario_supports_precision(self):
        spec = replace(
            get_scenario("fig12-move-rounds"),
            n=10,
            strategies=("Minim",),
            sweep_values=(2.0,),
        )
        ctrl = RunController(PrecisionTarget(rel=0.8, abs_tol=4.0, max_runs=6))
        series = run_sweep(spec, runs=2, seed=4, precision=ctrl)
        assert len(ctrl.runs_per_point) == 1
        assert series.x_label == "round"

    def test_float_shorthand_via_run_sweep(self, tmp_path):
        store = SqliteBackend(tmp_path / "s.sqlite")
        series = run_sweep(
            replace(noisy_spec(), sweep_values=(6.0,)),
            runs=2,
            seed=3,
            store=store,
            precision=5.0,  # absurdly loose rel target: converges at min runs
        )
        assert "adaptive: 2 total runs" in series.notes


class TestStderrGuard:
    def test_single_run_sweep_stores_zero_stderr_not_nan(self):
        series = run_sweep(noisy_spec(), runs=1, seed=3)
        for per_strategy in series.stderr.values():
            for values in per_strategy.values():
                assert values == [0.0] * len(values)

    def test_ragged_counts_produce_finite_stderr(self):
        ctrl = RunController(SMOKE_TARGET)
        series = run_sweep(noisy_spec(), runs=2, seed=3, precision=ctrl)
        assert len(set(ctrl.runs_per_point)) > 1  # genuinely ragged
        for per_strategy in series.stderr.values():
            for values in per_strategy.values():
                assert all(math.isfinite(v) for v in values)
