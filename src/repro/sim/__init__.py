"""Simulation harness: networks, workloads, scenarios and experiments."""

from repro.sim.control import PrecisionTarget, RunController, resolve_precision
from repro.sim.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    TaskGroup,
    WorkerExecutor,
    run_worker,
)
from repro.sim.metrics import EventRecord, MetricsCollector, MetricsSnapshot
from repro.sim.monitor import StoreMonitor, StoreStats, export_csv
from repro.sim.network import AdHocNetwork, MultiStrategyReplay, StrategyLane
from repro.sim.random_networks import sample_configs
from repro.sim.registry import available_scenarios, get_scenario, register_scenario
from repro.sim.results import (
    JsonDirBackend,
    ResultsBackend,
    SqliteBackend,
    migrate_store,
    open_backend,
)
from repro.sim.rng import rng_from, spawn_seeds
from repro.sim.scenarios import (
    ChurnSpec,
    MobilitySpec,
    PlacementSpec,
    PowerSpec,
    ScenarioSpec,
    TracePhases,
    scenario_phases,
    scenario_trace,
)
from repro.sim.sweep import (
    SweepSpec,
    build_sweep,
    plan_additional_tasks,
    plan_tasks,
    run_sweep,
)
from repro.sim.timeline import (
    CheckpointTree,
    Stage,
    TracePlan,
    build_plan,
    prefix_token,
)
from repro.sim.workloads import (
    join_workload,
    movement_rounds,
    power_raise_workload,
)

__all__ = [
    "AdHocNetwork",
    "CheckpointTree",
    "ChurnSpec",
    "EventRecord",
    "Executor",
    "JsonDirBackend",
    "MetricsCollector",
    "MetricsSnapshot",
    "MobilitySpec",
    "MultiStrategyReplay",
    "PlacementSpec",
    "PowerSpec",
    "PrecisionTarget",
    "ProcessExecutor",
    "ResultsBackend",
    "RunController",
    "ScenarioSpec",
    "SerialExecutor",
    "SqliteBackend",
    "Stage",
    "StoreMonitor",
    "StoreStats",
    "StrategyLane",
    "SweepSpec",
    "TaskGroup",
    "TracePhases",
    "TracePlan",
    "WorkerExecutor",
    "available_scenarios",
    "build_plan",
    "build_sweep",
    "export_csv",
    "get_scenario",
    "join_workload",
    "migrate_store",
    "movement_rounds",
    "open_backend",
    "plan_additional_tasks",
    "plan_tasks",
    "power_raise_workload",
    "prefix_token",
    "register_scenario",
    "resolve_precision",
    "rng_from",
    "run_sweep",
    "run_worker",
    "sample_configs",
    "scenario_phases",
    "scenario_trace",
    "spawn_seeds",
]
