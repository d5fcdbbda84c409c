"""Tests for the CLI."""

import json
import re

import pytest

from repro.cli import build_parser, main


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

    def test_store_migrate_requires_dest(self, tmp_path, capsys):
        rc = main(["store", "migrate", str(tmp_path / "x")])
        assert rc == 2
        assert "DEST" in capsys.readouterr().err
