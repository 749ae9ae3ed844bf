"""Task recipes: picklable, canonical, and equal to the units they name."""

import pickle

import pytest

from repro.chaos.engine import ChaosOptions, chaos_tasks
from repro.chaos.spec import CampaignSpec, sample_campaign
from repro.errors import ConfigError
from repro.experiments.common import FunctionalSettings
from repro.runner.figures import build_figure_job, figure_tasks
from repro.runner.supervisor import UnitContext


def settings():
    return FunctionalSettings(
        scale=0.05, warmup_seconds=0.5, measure_seconds=1.0, seed=3
    )


class TestFigureTasks:
    def test_canonical_order_matches_serial_units(self):
        job = build_figure_job("fig06", settings())
        tasks = figure_tasks("fig06", settings())
        assert [t.name for t in tasks] == [name for name, _ in job.units]

    def test_tasks_pickle_roundtrip(self):
        for task in figure_tasks("fig04", settings()):
            clone = pickle.loads(pickle.dumps(task))
            assert clone == task  # frozen dataclass: field equality

    def test_rebuilt_unit_equals_serial_result(self):
        task = figure_tasks("fig03", settings())[0]
        job = build_figure_job("fig03", settings())
        serial = dict(job.units)[task.name](UnitContext(name=task.name))
        fleet = task.run(UnitContext(name=task.name))
        assert fleet.mode_fractions == serial.mode_fractions

    def test_unknown_unit_raises(self):
        task = figure_tasks("fig03", settings())[0]
        bad = type(task)(
            figure=task.figure,
            unit="no-such-unit",
            settings=task.settings,
            variants=task.variants,
        )
        with pytest.raises(ConfigError):
            bad.run(UnitContext(name="no-such-unit"))


class TestChaosTasks:
    def options(self):
        return ChaosOptions(
            seed=5, campaigns=2, simulator="fluid", shrink=False,
            artifact_dir=None,
        )

    def test_names_and_specs_match_serial_sweep(self):
        tasks = chaos_tasks(self.options())
        assert [t.name for t in tasks] == ["campaign-000", "campaign-001"]
        for index, task in enumerate(tasks):
            assert CampaignSpec.from_dict(task.spec) == sample_campaign(
                5, index, simulator="fluid"
            )
            assert not task.shrink and task.artifact_dir is None

    def test_tasks_pickle(self):
        for task in chaos_tasks(self.options()):
            assert pickle.loads(pickle.dumps(task)) == task

    def test_invalid_options_rejected(self):
        with pytest.raises(ConfigError):
            chaos_tasks(ChaosOptions(campaigns=0))
