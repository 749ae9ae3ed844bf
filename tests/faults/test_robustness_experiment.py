"""The robustness_faults experiment: completion + recovery criterion.

The study runs as ``repro run faults`` runs it: the ``faults`` job's
unit tasks through the scheduler, in this process, then the job's
``finalize``.
"""

from types import SimpleNamespace

import pytest

from repro.experiments.common import FunctionalSettings
from repro.experiments.robustness_faults import PhaseBandwidth
from repro.fleet import run_fleet
from repro.runner import build_figure_job, figure_tasks

PACKET = ("floc",)
FLUID = ("floc", "nd")


@pytest.fixture(scope="module")
def result():
    settings = FunctionalSettings(
        scale=0.05, warmup_seconds=2.0, measure_seconds=6.0, seed=3
    )
    names = [f"faults:packet:{s}" for s in PACKET] + [
        f"faults:fluid:{s}" for s in FLUID
    ]
    tasks = [t for t in figure_tasks("faults", settings) if t.unit in names]
    report = run_fleet(tasks)
    assert report.ok, report.summary_rows()
    table = build_figure_job("faults", settings).finalize(report.results)
    return SimpleNamespace(
        packet=[report.results[f"faults:packet:{s}"] for s in PACKET],
        fluid=[report.results[f"faults:fluid:{s}"] for s in FLUID],
        rows=lambda: table.rows,
    )


class TestRobustnessFaults:
    def test_completes_for_both_simulators(self, result):
        assert [r.simulator for r in result.packet] == ["packet"]
        assert [r.simulator for r in result.fluid] == ["fluid", "fluid"]

    def test_faults_fired_in_both_simulators(self, result):
        packet_names = {name for _, name in result.packet[0].fault_log}
        assert any("restart" in n for n in packet_names)
        assert any("link-down" in n for n in packet_names)
        assert any("link-up" in n for n in packet_names)
        fluid_names = {name for _, name in result.fluid[0].fault_log}
        assert "defense-restart" in fluid_names
        assert "uplink-degrade" in fluid_names and "uplink-restore" in fluid_names

    def test_floc_recovers_within_20_percent_packet(self, result):
        floc = result.packet[0]
        assert floc.pre > 0
        assert floc.recovery_ratio >= 0.8

    def test_floc_recovers_within_20_percent_fluid(self, result):
        floc = next(r for r in result.fluid if r.scheme == "floc")
        assert floc.pre > 0
        assert floc.recovery_ratio >= 0.8

    def test_faults_bite_during_window_fluid(self, result):
        floc = next(r for r in result.fluid if r.scheme == "floc")
        assert floc.during < floc.pre  # degradation is visible, not masked

    def test_rows_shape(self, result):
        rows = result.rows()
        assert len(rows) == 3
        assert all(len(row) == 6 for row in rows)

    def test_recovery_ratio_defined_for_zero_pre(self):
        entry = PhaseBandwidth(
            simulator="packet", scheme="x", pre=0.0, during=0.0, post=0.0
        )
        assert entry.recovery_ratio == 1.0
