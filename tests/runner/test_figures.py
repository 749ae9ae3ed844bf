"""Figure jobs through the scheduler and the CLI: decomposition, resume,
exit codes."""

import os

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.experiments.common import FunctionalSettings
from repro.fleet import run_fleet
from repro.runner import CheckpointStore, build_figure_job, figure_tasks

SMALL = FunctionalSettings(
    scale=0.05, warmup_seconds=1.0, measure_seconds=2.0, seed=1
)


class TestRegistry:
    def test_unknown_figure_rejected(self):
        with pytest.raises(ConfigError, match="unknown figure"):
            build_figure_job("fig99", SMALL)

    def test_every_figure_has_units_and_fingerprint(self):
        for figure in ("fig02", "fig03", "fig04", "fig06", "fig07", "fig08",
                       "fig09", "fig10", "fig11", "fig13", "fig14", "fig15",
                       "faults"):
            job = build_figure_job(figure, SMALL)
            assert job.units, figure
            assert job.fingerprint["figure"] == figure

    def test_sweep_figures_decompose_per_cell(self):
        job = build_figure_job("fig08", SMALL)
        # 3 schemes x 6 rates
        assert len(job.units) == 18

    def test_internet_units_cover_variants_and_strategies(self):
        job = build_figure_job("fig13", SMALL, variants=("f-root", "jpn"))
        names = [name for name, _ in job.units]
        assert len(names) == 2 * 5
        assert "fig13:jpn:A-lo" in names

    def test_fingerprint_excludes_sanitize(self):
        # invariant checking observes a run without changing its numbers,
        # so checkpoints written with and without it must interoperate
        plain = build_figure_job("fig03", SMALL)
        strict = build_figure_job(
            "fig03",
            FunctionalSettings(
                scale=0.05, warmup_seconds=1.0, measure_seconds=2.0, seed=1,
                sanitize="strict",
            ),
        )
        assert plain.fingerprint == strict.fingerprint

    def test_finalize_tolerates_missing_units(self):
        job = build_figure_job("fig06", SMALL)
        output = job.finalize({})
        assert output.rows == []
        assert len(output.notes) == len(job.units)


class TestJobExecution:
    def test_fig03_job_matches_direct_run(self, tmp_path):
        from repro.experiments.fig03 import run_fig03

        job = build_figure_job("fig03", SMALL)
        report = run_fleet(
            figure_tasks("fig03", SMALL),
            CheckpointStore(str(tmp_path)),
            fingerprint=job.fingerprint,
        )
        assert report.ok
        output = job.finalize(report.results)
        assert output.rows == sorted(
            run_fig03(seed=SMALL.seed).mode_fractions.items()
        )

    def test_resumed_job_reuses_results(self, tmp_path):
        job = build_figure_job("fig03", SMALL)
        tasks = figure_tasks("fig03", SMALL)
        first = run_fleet(
            tasks, CheckpointStore(str(tmp_path)), fingerprint=job.fingerprint
        )
        second = run_fleet(
            tasks, CheckpointStore(str(tmp_path)), fingerprint=job.fingerprint
        )
        assert [o.status for o in second.outcomes] == ["resumed"]
        assert job.finalize(second.results).rows == \
            job.finalize(first.results).rows


class TestCli:
    def test_csv_written_into_directory(self, tmp_path, capsys):
        csv_dir = tmp_path / "out"
        os.makedirs(csv_dir)
        assert main(["run", "fig03", "--csv", str(csv_dir)]) == 0
        assert (csv_dir / "fig03.csv").exists()

    def test_failing_units_exit_nonzero(self, capsys):
        # a bogus skitter variant makes every fig13 unit raise ConfigError
        code = main(["run", "fig13", "--variants", "bogus-map"])
        assert code == 1
        err = capsys.readouterr().err
        assert "failed" in err and "ConfigError" in err

    def test_checkpoint_then_resume_is_identical(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main(["run", "fig03", "--checkpoint-dir", ckpt]) == 0
        first = capsys.readouterr().out
        assert main(["run", "fig03", "--resume", ckpt]) == 0
        assert capsys.readouterr().out == first

    def test_resume_with_other_settings_exits_2(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main(["run", "fig03", "--checkpoint-dir", ckpt]) == 0
        capsys.readouterr()
        assert main(["run", "fig03", "--seed", "9", "--resume", ckpt]) == 2
        assert "different job" in capsys.readouterr().err

    def test_resume_of_a_job_level_telemetry_store_says_why(
        self, tmp_path, capsys
    ):
        from repro.telemetry import Telemetry

        ckpt = str(tmp_path / "ckpt")
        assert main(["run", "fig03", "--checkpoint-dir", ckpt]) == 0
        CheckpointStore(ckpt).save(
            "telemetry", "registry", Telemetry(mode="metrics")
        )
        capsys.readouterr()
        code = main(["run", "fig03", "--resume", ckpt, "--telemetry",
                     "metrics", "--telemetry-dir", str(tmp_path / "tel")])
        assert code == 2
        assert "job-level telemetry snapshot" in capsys.readouterr().err
        assert main(["run", "fig03", "--resume", ckpt]) == 0

    def test_sanitize_strict_accepted(self, capsys):
        assert main(["run", "fig03", "--sanitize", "strict"]) == 0

    def test_deadline_zero_is_config_error(self, capsys):
        assert main(["run", "fig03", "--deadline", "0"]) == 2


class TestSatelliteRegressions:
    def test_make_policy_does_not_mutate_caller_config(self):
        from repro.core.config import FLocConfig
        from repro.experiments.common import make_policy

        cfg = FLocConfig(s_max=25)
        before = (cfg.s_max, cfg.min_guaranteed_share,
                  cfg.preferential_drop, cfg.use_drop_filter)
        for scheme in ("floc", "floc-noagg", "floc-nopref", "floc-filter"):
            make_policy(scheme, SMALL, cfg)
        assert (cfg.s_max, cfg.min_guaranteed_share,
                cfg.preferential_drop, cfg.use_drop_filter) == before

    @pytest.mark.parametrize("kwargs", [
        {"scale": 0.0},
        {"scale": -1.0},
        {"warmup_seconds": 0.0},
        {"measure_seconds": -2.0},
        {"seed": 1.5},
        {"seed": True},
        {"s_max": 0},
        {"sanitize": "paranoid"},
    ])
    def test_functional_settings_validated(self, kwargs):
        with pytest.raises(ConfigError):
            FunctionalSettings(**kwargs)

    def test_functional_settings_valid_values_accepted(self):
        settings = FunctionalSettings(
            scale=0.5, warmup_seconds=1.0, measure_seconds=2.0, seed=3,
            s_max=10, sanitize="record",
        )
        assert settings.total_seconds == 3.0
