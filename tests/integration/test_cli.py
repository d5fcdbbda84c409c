"""Tests for the CLI."""

import json
import re
from dataclasses import replace

import pytest

from repro.cli import _FIGURES, build_parser, main
from repro.sim import registry
from repro.sim.registry import get_scenario


class TestParser:
    def test_fig10_defaults(self):
        args = build_parser().parse_args(["fig10"])
        assert args.command == "fig10"
        assert args.n_values == [40, 60, 80, 100, 120]

    def test_common_flags_after_subcommand(self):
        args = build_parser().parse_args(["fig11", "--runs", "3", "--seed", "9"])
        assert args.runs == 3 and args.seed == 9

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig10", "--runs", "1"],
            ["fig11", "--runs", "1"],
            ["fig12", "--runs", "1"],
            ["all", "--runs", "1"],
            ["scenario", "dense-urban", "--runs", "1"],
            ["scenario", "--list"],
            ["bench", "--runs", "1"],
        ],
    )
    def test_every_subcommand_parses_with_runs_1(self, argv):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]

    @pytest.mark.parametrize("command", ["fig10", "fig11", "fig12", "all"])
    def test_no_warm_start_flag_is_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--no-warm-start"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-warm-start" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "uniform-churn", "--ci-target", "0.2"],
            ["scenario", "uniform-churn", "--ci-abs", "1.0"],
            ["fig11", "--max-runs", "32"],
            ["store", "export", "store.sqlite", "--parquet", "points.parquet"],
        ],
        ids=["ci-target", "ci-abs", "max-runs", "parquet"],
    )
    def test_removed_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--ci-target", "--ci-abs", "--max-runs"])
    @pytest.mark.parametrize("command", ["fig10", "fig11", "fig12", "all", "scenario"])
    def test_no_experiment_command_takes_a_run_count_target(self, command, flag, capsys):
        # the run budget is --runs alone on every command that sweeps
        argv = [command, *(["uniform-churn"] if command == "scenario" else []), flag, "4"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("command", "row"),
        [
            ("fig10", 0),
            ("fig10", 1),
            ("fig11", 0),
            ("fig12", 0),
            ("fig12", 1),
        ],
        ids=["fig10-join", "fig10-range", "fig11-power", "fig12-move-disp", "fig12-move-rounds"],
    )
    def test_flag_defaults_rebuild_the_registered_spec(self, command, row):
        # repr also tells 40 from 40.0, which would change the point keys
        name, _, overrides = _FIGURES[command][row]
        spec = get_scenario(name)
        args = build_parser().parse_args([command])
        assert repr(replace(spec, **overrides(args, spec))) == repr(spec)


class TestMain:
    def test_fig11_prints_tables_and_checks(self, capsys):
        rc = main(["fig11", "--runs", "1", "--n", "15", "--raisefactors", "1", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "delta_max_color" in out
        assert "delta_recodings" in out
        assert "PASS" in out or "FAIL" in out

    def test_fig12_runs(self, capsys):
        rc = main(
            [
                "fig12",
                "--runs",
                "1",
                "--n",
                "10",
                "--rounds",
                "2",
                "--maxdisps",
                "0",
                "20",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig12-move-disp" in out
        assert "fig12-move-rounds" in out

    def test_fig10_writes_markdown(self, tmp_path, capsys):
        rc = main(
            [
                "fig10",
                "--runs",
                "1",
                "--n-values",
                "8",
                "12",
                "--skip-range-sweep",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        written = list(tmp_path.glob("*.md"))
        assert len(written) == 1
        text = written[0].read_text()
        assert "max_color" in text and "| N |" in text

    def test_fig10_range_too_small_fails_cleanly(self, capsys):
        rc = main(["fig10", "--runs", "1", "--n-values", "8", "--avg-ranges", "2"])
        assert rc == 2
        assert "error: need 0 < min_range <= max_range" in capsys.readouterr().err


#: Small re-basings of the five paper scenarios.
TINY_FIGURES = {
    "fig10-join": {"sweep_values": (8, 12)},
    "fig10-range": {"n": 12, "sweep_values": (15.0, 35.0)},
    "fig11-power": {"n": 12, "sweep_values": (1.0, 3.0)},
    "fig12-move-disp": {"n": 10, "sweep_values": (0.0, 20.0)},
    "fig12-move-rounds": {"n": 10, "sweep_values": (3,)},
}


def _rebase(monkeypatch, name, overrides):
    monkeypatch.setitem(registry._REGISTRY, name, replace(get_scenario(name), **overrides))


class TestFigureCommandsRunTheRegisteredScenarios:
    """The figure commands re-base the registered specs and store their points.

    ``scenario`` on the same store, with the spec re-based to the same
    values, must serve every point from cache.
    """

    @pytest.mark.parametrize(
        ("argv", "name", "rebase"),
        [
            (
                ["fig10", "--n-values", "8", "12", "--skip-range-sweep"],
                "fig10-join",
                {"sweep_values": (8, 12)},
            ),
            (
                ["fig10", "--n-values", "8", "--avg-ranges", "15", "35"],
                "fig10-range",
                {"sweep_values": (15.0, 35.0)},
            ),
            (
                ["fig11", "--n", "12", "--raisefactors", "1", "3"],
                "fig11-power",
                {"n": 12, "sweep_values": (1.0, 3.0)},
            ),
            (
                ["fig12", "--n", "10", "--rounds", "3", "--maxdisps", "0", "20"],
                "fig12-move-disp",
                {"n": 10, "sweep_values": (0.0, 20.0)},
            ),
            (
                ["fig12", "--n", "10", "--rounds", "3", "--maxdisps", "0", "20"],
                "fig12-move-rounds",
                {"n": 10, "sweep_values": (3,)},
            ),
        ],
        ids=list(TINY_FIGURES),
    )
    def test_scenario_reuses_the_figure_points(
        self, tmp_path, capsys, monkeypatch, argv, name, rebase
    ):
        common = ["--runs", "1", "--seed", "4", "--results", str(tmp_path / "store")]
        assert main([*argv, *common]) == 0
        capsys.readouterr()
        _rebase(monkeypatch, name, rebase)
        assert main(["scenario", name, *common]) == 0
        assert f"[{name}] 0 points computed" in capsys.readouterr().out

    def test_all_is_every_figure_command_at_the_registry_defaults(self, capsys, monkeypatch):
        # the figure flags' defaults are read from the (patched) registry
        for name, overrides in TINY_FIGURES.items():
            _rebase(monkeypatch, name, overrides)
        assert main(["all", "--runs", "1"]) == 0
        everything = capsys.readouterr().out
        for name, overrides in TINY_FIGURES.items():
            assert f"[{name}] {len(overrides['sweep_values'])} points computed" in everything
        for command in ("fig10", "fig11", "fig12"):
            assert main([command, "--runs", "1"]) == 0
        assert capsys.readouterr().out == everything


class TestScenarioCommand:
    def test_list_prints_catalog(self, capsys):
        rc = main(["scenario", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("poisson-cluster", "hotspot-churn", "dense-urban"):
            assert name in out

    def test_missing_name_lists_and_fails(self, capsys):
        rc = main(["scenario"])
        assert rc == 2
        assert "registered scenarios" in capsys.readouterr().out

    def test_unknown_name_prints_clean_error(self, capsys):
        rc = main(["scenario", "no-such-scenario", "--runs", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown scenario" in err and "dense-urban" in err

    def test_scenario_runs_tiny_sweep(self, capsys):
        rc = main(["scenario", "sparse-long-range", "--runs", "1", "--strategies", "Minim"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scenario-sparse-long-range" in out
        assert "max_color" in out

    def test_scenario_writes_markdown(self, tmp_path, capsys):
        rc = main(
            [
                "scenario",
                "sparse-long-range",
                "--runs",
                "1",
                "--strategies",
                "Minim",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "scenario-sparse-long-range.md").exists()


class TestBenchCommand:
    def test_bench_writes_json(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_eventloop.json"
        rc = main(["bench", "--runs", "1", "--out", str(out_path)])
        printed = capsys.readouterr().out
        assert rc == 0
        assert "obs-overhead" in printed and "speedup" in printed
        entries = json.loads(out_path.read_text())
        assert [(e["scenario"], e["mode"]) for e in entries] == [
            ("obs-overhead", "off"),
            ("obs-overhead", "on"),
        ]
        for e in entries:
            assert {"scenario", "n", "wall_seconds", "events_per_sec"} <= set(e)
            assert e["n"] == 120 and e["runs"] == 1
        assert entries[-1]["trace_on_vs_off"] > 0

    def test_bench_rejects_zero_runs(self, capsys):
        assert main(["bench", "--runs", "0"]) == 2
        assert "runs" in capsys.readouterr().err

    def test_help_lists_the_bench_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--help"])
        assert exc.value.code == 0
        # "-h, --help" leads its line, so this reads the three options besides it
        options = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M))
        assert options == {"--runs", "--seed", "--out"}


class TestWorkerAndStoreCommands:
    def _seed_store(self, path, executor="serial"):
        rc = main(
            [
                "scenario",
                "sparse-long-range",
                "--runs",
                "1",
                "--strategies",
                "Minim",
                "--results",
                str(path),
                "--executor",
                executor,
            ]
        )
        assert rc == 0

    def test_worker_once_on_empty_store_exits_clean(self, tmp_path, capsys):
        rc = main(["worker", "--results", str(tmp_path / "store.sqlite"), "--once"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "computed 0 task group(s)" in out

    def test_sqlite_results_flag_and_store_ls(self, tmp_path, capsys):
        db = tmp_path / "store.sqlite"
        self._seed_store(db, executor="worker")
        rc = main(["store", "ls", str(db)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sqlite store" in out
        assert "scenario-sparse-long-range" in out

    def test_store_compact_and_migrate(self, tmp_path, capsys):
        src = tmp_path / "json-store"
        self._seed_store(src)
        rc = main(["store", "migrate", str(src), str(tmp_path / "copy.sqlite")])
        assert rc == 0
        assert "migrated 3 point(s)" in capsys.readouterr().out
        rc = main(["store", "compact", str(src)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "compacted 3 point file(s)" in out
        assert (src / "store.sqlite").exists()
        assert not (src / "points").exists()

    def test_store_ckpt_gc_prunes_only_unreferenced_links(self, tmp_path, capsys):
        from repro.sim.results import SqliteBackend

        db = tmp_path / "store.sqlite"
        store = SqliteBackend(db)
        store.save_manifest("sweep", {"points": ["p-live"]})
        store.put_checkpoint("live-link", {"base": None, "version": 1, "points": ["p-live"]})
        store.put_checkpoint("dead-link", {"base": None, "version": 1, "points": ["p-gone"]})
        assert main(["store", "ckpt", str(db), "gc"]) == 0
        assert "pruned 1 checkpoint link(s) (1 kept)" in capsys.readouterr().out
        assert store.list_checkpoints() == ["live-link"]
        # one spelling: the top-level `store gc` action is gone
        with pytest.raises(SystemExit):
            main(["store", "gc", str(db)])

    def test_store_migrate_requires_dest(self, tmp_path, capsys):
        rc = main(["store", "migrate", str(tmp_path / "x")])
        assert rc == 2
        assert "DEST" in capsys.readouterr().err
