"""The faults figure: completion + recovery criterion.

The study runs as ``repro run faults`` runs it: the ``faults`` job's
unit tasks through the scheduler, in this process, then the job's
``finalize``.  Each unit is one fixed chaos campaign; its three
measurement windows are the pre-fault, during-fault and post-fault
phases.
"""

from types import SimpleNamespace

import pytest

from repro.chaos import Measurements
from repro.chaos.slo import WindowShare
from repro.experiments.common import FunctionalSettings
from repro.fleet import run_fleet
from repro.runner import build_figure_job, figure_tasks

PACKET = ("floc",)
FLUID = ("floc", "nd")
SETTINGS = FunctionalSettings(
    scale=0.05, warmup_seconds=2.0, measure_seconds=6.0, seed=3
)


def phases(simulator, scheme, measurements):
    """One cell's legitimate share in each phase, unrounded."""
    pre, during, post = (w.legit_share for w in measurements.windows)
    return SimpleNamespace(
        simulator=simulator,
        scheme=scheme,
        pre=pre,
        during=during,
        post=post,
        recovery_ratio=post / pre if pre > 1e-12 else 1.0,
        fault_log=measurements.fault_log,
    )


@pytest.fixture(scope="module")
def result():
    names = [f"faults:packet:{s}" for s in PACKET] + [
        f"faults:fluid:{s}" for s in FLUID
    ]
    tasks = [t for t in figure_tasks("faults", SETTINGS) if t.unit in names]
    report = run_fleet(tasks)
    assert report.ok, report.summary_rows()
    table = build_figure_job("faults", SETTINGS).finalize(report.results)
    return SimpleNamespace(
        packet=[
            phases("packet", s, report.results[f"faults:packet:{s}"])
            for s in PACKET
        ],
        fluid=[
            phases("fluid", s, report.results[f"faults:fluid:{s}"])
            for s in FLUID
        ],
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

    def test_table_recovery_is_post_over_pre(self, result):
        cells = result.packet + result.fluid
        assert [row[5] for row in result.rows()] == [
            round(c.recovery_ratio, 3) for c in cells
        ]

    def test_recovery_ratio_defined_for_zero_pre(self):
        windows = [
            WindowShare(index=i, start=i, stop=i + 1, legit_share=0.0)
            for i in range(3)
        ]
        table = build_figure_job("faults", SETTINGS).finalize(
            {"faults:packet:floc": Measurements(windows=windows)}
        )
        (row,) = table.rows
        assert row[5] == 1.0


@pytest.mark.xfail(
    strict=True,
    reason="Known deviation: a campaign's restart warm-up is one whole "
    "window, so FLoc leaves its neutral fallback only as the post window "
    "opens and that window measures its re-convergence; at seed 1 "
    "recovery is 0.75 on either simulator",
)
@pytest.mark.parametrize("simulator", ["packet", "fluid"])
def test_floc_recovers_within_20_percent_at_seed_1(simulator):
    settings = FunctionalSettings(
        scale=0.05, warmup_seconds=2.0, measure_seconds=6.0, seed=1
    )
    unit = dict(build_figure_job("faults", settings).units)
    floc = phases(simulator, "floc", unit[f"faults:{simulator}:floc"](None))
    assert floc.recovery_ratio >= 0.8
