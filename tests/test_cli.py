"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment"])
        assert args.command == "experiment"
        assert args.workload == "heavy"
        assert args.ro == 0.25
        assert not args.no_ampere

    def test_experiment_flags(self):
        args = build_parser().parse_args(
            [
                "experiment", "--workload", "light", "--hours", "2",
                "--ro", "0.17", "--no-ampere", "--capping",
                "--scale-experiment-only", "--seed", "7", "--servers", "80",
            ]
        )
        assert args.workload == "light"
        assert args.hours == 2.0
        assert args.ro == 0.17
        assert args.no_ampere and args.capping and args.scale_experiment_only
        assert args.servers == 80

    def test_invalid_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--workload", "insane"])

    def test_campaign_parallel_flags(self):
        args = build_parser().parse_args(["campaign", "--workers", "4"])
        assert args.workers == 4 and not args.parallel
        args = build_parser().parse_args(["campaign", "--parallel"])
        assert args.workers is None and args.parallel


class TestExecution:
    def test_experiment_command_runs(self, capsys):
        code = main(
            [
                "experiment", "--servers", "80", "--hours", "0.5",
                "--workload", "typical", "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "experiment" in out
        assert "G_TPW" in out

    @pytest.mark.parametrize("verb", ["sweep", "spans"])
    def test_retired_verbs_are_gone(self, verb):
        with pytest.raises(SystemExit):
            build_parser().parse_args([verb])

    def test_trace_command_runs(self, capsys):
        code = main(["trace", "--rows", "2", "--days", "0.05"])
        assert code == 0
        assert "datacenter" in capsys.readouterr().out

    def test_advise_command_runs(self, capsys):
        code = main(
            [
                "advise", "--servers", "80", "--hours", "2.0",
                "--workload", "typical", "--ratios", "0.17", "0.25",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended over-provision ratio" in out

    def test_campaign_command_runs(self, capsys, tmp_path):
        csv_path = tmp_path / "c.csv"
        code = main(
            [
                "campaign", "--servers", "80", "--hours", "0.3",
                "--ratios", "0.17", "--seeds", "3", "--csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "worst-case-optimal" in out
        assert csv_path.exists()

    def test_campaign_parallel_matches_serial_csv(self, capsys, tmp_path):
        serial_csv = tmp_path / "serial.csv"
        parallel_csv = tmp_path / "parallel.csv"
        base = [
            "campaign", "--servers", "40", "--hours", "0.2",
            "--ratios", "0.17", "--seeds", "3",
        ]
        assert main([*base, "--csv", str(serial_csv)]) == 0
        assert main([*base, "--workers", "2", "--csv", str(parallel_csv)]) == 0
        out = capsys.readouterr().out
        assert "on 2 workers" in out
        assert serial_csv.read_bytes() == parallel_csv.read_bytes()

    def test_campaign_rejects_nonpositive_workers(self, capsys):
        code = main(
            ["campaign", "--servers", "40", "--hours", "0.1",
             "--ratios", "0.17", "--seeds", "3", "--workers", "0"]
        )
        assert code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_campaign_survives_failing_cells(self, capsys):
        # 50 servers is invalid (must be a multiple of 40): every cell
        # fails in its worker, yet the sweep completes with failed rows.
        code = main(
            ["campaign", "--servers", "50", "--hours", "0.1",
             "--ratios", "0.17", "--seeds", "3", "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "cells failed" in out
        assert "n/a (failed cells)" in out


class TestTelemetryCommands:
    def teardown_method(self):
        import logging

        logger = logging.getLogger("repro")
        for handler in list(logger.handlers):
            if not isinstance(handler, logging.NullHandler):
                logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)

    def test_log_level_flag_parses(self):
        args = build_parser().parse_args(["--log-level", "debug", "experiment"])
        assert args.log_level == "debug"
        args = build_parser().parse_args(["experiment"])
        assert args.log_level is None

    def test_log_level_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--log-level", "chatty", "experiment"])

    def test_metrics_command_prints_prometheus(self, capsys, tmp_path):
        import json

        snap_path = tmp_path / "snap.json"
        code = main(
            ["metrics", "--servers", "40", "--hours", "0.3",
             "--workload", "typical", "--json", str(snap_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_engine_events_total counter" in out
        assert "repro_monitor_sweeps_total" in out
        assert 'repro_scheduler_rpc_latency_seconds_bucket' in out
        doc = json.loads(snap_path.read_text())
        assert "repro_controller_ticks_total" in doc

    def test_metrics_command_prints_span_table_to_stderr(self, capsys):
        code = main(
            ["metrics", "--servers", "40", "--hours", "0.3",
             "--workload", "heavy", "--last", "2"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "controller.tick" in captured.err
        assert "monitor.sweep" in captured.err
        assert "wall mean (us)" in captured.err
        assert "# TYPE repro_engine_events_total counter" in captured.out
        assert "wall mean (us)" not in captured.out

    def test_metrics_unknown_span_name_fails(self, capsys):
        code = main(
            ["metrics", "--servers", "40", "--hours", "0.2",
             "--workload", "typical", "--name", "nope"]
        )
        assert code == 1
        assert "no spans named" in capsys.readouterr().err

    def test_log_level_debug_emits_to_stderr(self, capsys):
        code = main(
            ["--log-level", "info", "metrics", "--servers", "40",
             "--hours", "0.2", "--workload", "typical"]
        )
        assert code == 0
