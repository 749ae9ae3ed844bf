"""Command-line interface."""

import pytest

from repro.cli import FIGURES, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for fig in FIGURES:
            assert fig in out

    def test_run_requires_known_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_common_flags_parsed(self):
        args = build_parser().parse_args(
            ["run", "fig08", "--scale", "0.05", "--seconds", "3",
             "--warmup", "1", "--seed", "7"]
        )
        assert args.scale == 0.05
        assert args.seconds == 3.0
        assert args.seed == 7


class TestChaosCommand:
    def test_chaos_flags_parsed(self):
        args = build_parser().parse_args(
            ["chaos", "--seed", "7", "--campaigns", "2", "--simulator",
             "packet", "--floor", "0.5", "--no-shrink",
             "--max-shrink-trials", "9"]
        )
        assert args.seed == 7
        assert args.campaigns == 2
        assert args.simulator == "packet"
        assert args.floor == 0.5
        assert args.no_shrink
        assert args.max_shrink_trials == 9

    def test_invalid_campaign_count_is_a_config_error(self, capsys):
        assert main(["chaos", "--campaigns", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_clean_sweep_exits_zero(self, tmp_path, capsys):
        rc = main(
            ["chaos", "--seed", "2024", "--campaigns", "1", "--simulator",
             "packet", "--artifact-dir", str(tmp_path / "art"),
             "--csv", str(tmp_path / "csv")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign-000" in out
        assert (tmp_path / "csv" / "chaos.csv").exists()
        assert not (tmp_path / "art").exists()  # no violations, no artifacts

    def test_violation_shrinks_writes_artifact_and_replays(
        self, tmp_path, capsys
    ):
        art = tmp_path / "art"
        rc = main(
            ["chaos", "--seed", "2024", "--campaigns", "1", "--simulator",
             "packet", "--floor", "0.99", "--max-shrink-trials", "2",
             "--artifact-dir", str(art)]
        )
        assert rc == 3
        assert "VIOLATED" in capsys.readouterr().out
        artifacts = sorted(art.glob("reproducer-*.json"))
        assert artifacts
        assert main(["chaos", "--replay", str(artifacts[0])]) == 0
        assert "reproduced" in capsys.readouterr().out


class TestTelemetryFlags:
    def test_run_and_chaos_accept_telemetry(self):
        args = build_parser().parse_args(
            ["run", "fig03", "--telemetry", "trace",
             "--telemetry-dir", "tel"]
        )
        assert args.telemetry == "trace"
        assert args.telemetry_dir == "tel"
        args = build_parser().parse_args(["chaos", "--telemetry", "jsonl"])
        assert args.telemetry == "jsonl"
        assert args.telemetry_dir == "telemetry"

    def test_metrics_subcommand_parsed(self):
        args = build_parser().parse_args(["metrics", "tel", "--profile"])
        assert args.command == "metrics"
        assert args.path == "tel"
        assert args.profile

    def test_chaos_exports_and_metrics_renders(self, tmp_path, capsys):
        tel_dir = tmp_path / "tel"
        rc = main(
            ["chaos", "--seed", "2024", "--campaigns", "1", "--simulator",
             "packet", "--no-shrink", "--csv", str(tmp_path / "csv"),
             "--telemetry", "trace", "--telemetry-dir", str(tel_dir)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry metrics:" in out
        assert (tel_dir / "metrics.json").exists()
        assert (tel_dir / "events.jsonl").exists()

        assert main(["metrics", str(tel_dir), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "telemetry export" in out
        assert "drops_by_cause_packets" in out

    def test_telemetry_does_not_change_results(self, tmp_path, capsys):
        base_csv = tmp_path / "base"
        traced_csv = tmp_path / "traced"
        common = ["chaos", "--seed", "11", "--campaigns", "1",
                  "--simulator", "packet", "--no-shrink"]
        assert main(common + ["--csv", str(base_csv)]) == 0
        assert main(
            common
            + ["--csv", str(traced_csv), "--telemetry", "trace",
               "--telemetry-dir", str(tmp_path / "tel")]
        ) == 0
        capsys.readouterr()
        base = (base_csv / "chaos.csv").read_text()
        traced = (traced_csv / "chaos.csv").read_text()
        assert base == traced


class TestExecution:
    def test_run_fig03(self, capsys):
        assert main(["run", "fig03"]) == 0
        out = capsys.readouterr().out
        assert "1500" in out and "40" in out

    def test_run_fig04(self, capsys):
        assert main(["run", "fig04"]) == 0
        out = capsys.readouterr().out
        assert "synchronized" in out

    def test_run_fig02_small(self, capsys):
        assert main(
            ["run", "fig02", "--scale", "0.05", "--seconds", "2",
             "--warmup", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "service/drop ratio" in out

    def test_run_fig11(self, capsys):
        assert main(["run", "fig11", "--variants", "f-root"]) == 0
        out = capsys.readouterr().out
        assert "localized" in out and "dispersed" in out

    def test_quickstart_small(self, capsys):
        assert main(
            ["quickstart", "--scale", "0.05", "--seconds", "2",
             "--warmup", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "attack" in out


class TestMultiJobRuns:
    def test_figures_flag_accepts_several(self):
        args = build_parser().parse_args(["run", "fig03", "fig04"])
        assert args.figures == ["fig03", "fig04"]
        assert args.workers is None

    def test_workers_and_process_faults_parsed(self):
        args = build_parser().parse_args(["run", "fig03", "--workers", "2"])
        assert args.workers == 2
        args = build_parser().parse_args(
            ["chaos", "--workers", "2", "--process-faults", "1"]
        )
        assert args.workers == 2
        assert args.process_faults == 1

    def test_multi_figure_serial_prints_status_table(self, capsys):
        assert main(["run", "fig03", "fig04"]) == 0
        out = capsys.readouterr().out
        assert "job statuses" in out
        assert "1500" in out  # fig03 table
        assert "synchronized" in out  # fig04 table

    def test_duplicate_figures_deduplicated(self, capsys):
        assert main(["run", "fig03", "fig03"]) == 0
        out = capsys.readouterr().out
        assert out.count("packet-size distribution") == 1

    def test_single_figure_keeps_quiet_output(self, capsys):
        assert main(["run", "fig03"]) == 0
        assert "job statuses" not in capsys.readouterr().out

    def test_process_faults_require_workers(self, capsys):
        assert main(["chaos", "--campaigns", "1", "--process-faults", "1"]) == 2
        assert "requires --workers" in capsys.readouterr().err

    def test_run_with_workers_matches_serial(self, tmp_path, capsys):
        serial_csv = tmp_path / "serial"
        fleet_csv = tmp_path / "fleet"
        assert main(["run", "fig03", "--csv", str(serial_csv)]) == 0
        assert main(
            ["run", "fig03", "--workers", "1", "--csv", str(fleet_csv)]
        ) == 0
        capsys.readouterr()
        assert (
            (serial_csv / "fig03.csv").read_text()
            == (fleet_csv / "fig03.csv").read_text()
        )


class TestScratchStore:
    """``--workers`` without ``--checkpoint-dir`` runs on a lent scratch
    store: gone when the run ends ok, kept and named otherwise."""

    @pytest.fixture
    def tmp(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def test_removed_when_the_run_ends_ok(self, tmp, capsys):
        assert main(["run", "fig03", "--workers", "1"]) == 0
        assert main(
            ["chaos", "--seed", "2024", "--campaigns", "1", "--simulator",
             "packet", "--no-shrink", "--workers", "1"]
        ) == 0
        assert list(tmp.glob("repro-fleet-*")) == []
        assert "scratch store" not in capsys.readouterr().err

    def test_kept_and_named_when_it_does_not(self, tmp, capsys):
        # a bogus skitter variant makes every fig13 unit fail
        code = main(
            ["run", "fig13", "--variants", "bogus-map", "--workers", "1"]
        )
        assert code == 1
        (kept,) = tmp.glob("repro-fleet-*")
        assert f"scratch store: {kept}" in capsys.readouterr().err

    def test_removed_when_the_run_is_refused(self, tmp, capsys):
        assert main(["run", "fig03", "--workers", "1", "--deadline", "0"]) == 2
        assert list(tmp.glob("repro-fleet-*")) == []

    def test_in_process_runs_need_no_store(self, tmp, capsys):
        assert main(["run", "fig03"]) == 0
        assert list(tmp.iterdir()) == []


class TestTraceCommand:
    def test_trace_flags_parsed(self):
        args = build_parser().parse_args(
            ["run", "fig03", "--trace", "--trace-dir", "t"]
        )
        assert args.trace
        assert args.trace_dir == "t"
        args = build_parser().parse_args(["chaos", "--trace"])
        assert args.trace
        assert args.trace_dir == "trace"
        args = build_parser().parse_args(["trace", "report", "t"])
        assert args.command == "trace"
        assert args.action == "report"
        assert args.dir == "t"

    def test_run_trace_exports_and_reports(self, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        rc = main(
            ["run", "fig03", "--trace", "--trace-dir", str(trace_dir)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert (trace_dir / "trace.json").exists()

        assert main(["trace", "report", str(trace_dir)]) == 0
        report = capsys.readouterr().out
        assert "critical path" in report
        assert "timeline" in report

        out_json = tmp_path / "exported.json"
        assert main(
            ["trace", "export", str(trace_dir), "--out", str(out_json)]
        ) == 0
        assert out_json.exists()

    def test_trace_does_not_change_results(self, tmp_path, capsys):
        base_csv = tmp_path / "base"
        traced_csv = tmp_path / "traced"
        common = ["chaos", "--seed", "11", "--campaigns", "1",
                  "--simulator", "packet", "--no-shrink"]
        assert main(common + ["--csv", str(base_csv)]) == 0
        assert main(
            common
            + ["--csv", str(traced_csv), "--trace", "--trace-dir",
               str(tmp_path / "trace")]
        ) == 0
        capsys.readouterr()
        assert (
            (base_csv / "chaos.csv").read_text()
            == (traced_csv / "chaos.csv").read_text()
        )

    def test_trace_report_missing_dir_is_loud_nodata(self, tmp_path, capsys):
        rc = main(["trace", "report", str(tmp_path / "nope")])
        assert rc == 7
        err = capsys.readouterr().err
        assert "error:" in err
        assert "hint:" in err

    def test_metrics_missing_dir_is_loud_nodata(self, tmp_path, capsys):
        rc = main(["metrics", str(tmp_path / "nope")])
        assert rc == 7
        err = capsys.readouterr().err
        assert "error:" in err
        assert "hint:" in err
