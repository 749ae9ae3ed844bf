"""The fleet supervisor: determinism, salvage, retry, quarantine.

These tests spawn real worker processes (the whole point of the fleet),
so they use the cheapest figures and tiny campaign counts.  Task classes
live at module level: spawn workers import this module by name to
unpickle them.
"""

import os
import pickle
import signal
from dataclasses import dataclass

import pytest

from repro.errors import ConfigError
from repro.experiments.common import FunctionalSettings
from repro.fleet import FleetOptions, merge_telemetry, run_fleet
from repro.runner import (
    CheckpointStore,
    RetryPolicy,
    UnitContext,
    figure_tasks,
)
from repro.telemetry import Telemetry, use
from repro.telemetry.exporters import render_prometheus


def settings():
    return FunctionalSettings(
        scale=0.05, warmup_seconds=0.5, measure_seconds=1.0, seed=3
    )


@dataclass(frozen=True)
class PoisonTask:
    """Kills every worker that touches it."""

    label: str = "poison"

    @property
    def name(self) -> str:
        return self.label

    def run(self, ctx):
        os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True)
class FlakyTask:
    """Fails on the first attempt, succeeds once its marker exists."""

    marker: str
    label: str = "flaky"

    @property
    def name(self) -> str:
        return self.label

    def run(self, ctx):
        if not os.path.exists(self.marker):
            with open(self.marker, "w", encoding="utf-8") as fh:
                fh.write("attempted\n")
            raise ValueError("transient failure (first attempt)")
        return "recovered"


class TestOptions:
    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigError):
            FleetOptions(workers=0).validate()

    def test_heartbeat_timeout_must_exceed_interval(self):
        # the beat interval is a 0.1 s constant
        with pytest.raises(ConfigError):
            FleetOptions(heartbeat_timeout_seconds=0.1).validate()
        FleetOptions(heartbeat_timeout_seconds=0.2).validate()

    def test_spawn_pool_needs_a_store(self):
        with pytest.raises(ConfigError, match="checkpoint store"):
            run_fleet([PoisonTask()], None, FleetOptions(workers=1))

    def test_duplicate_task_names_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "store"))
        tasks = [PoisonTask(), PoisonTask()]
        with pytest.raises(ConfigError):
            run_fleet(tasks, store)


class TestDeterminism:
    def test_fleet_matches_serial_results_and_telemetry(self, tmp_path):
        figures = ["fig03", "fig04"]
        tasks = [t for f in figures for t in figure_tasks(f, settings())]

        # reference: ONE telemetry threaded through every task in order;
        # per-task pieces merged in that order must equal this registry
        shared_tel = Telemetry(mode="metrics")
        with use(shared_tel):
            shared = {t.name: t.run(UnitContext(name=t.name)) for t in tasks}

        inline = run_fleet(tasks, None, FleetOptions(telemetry_mode="metrics"))
        fleet = run_fleet(
            tasks,
            CheckpointStore(str(tmp_path / "store")),
            FleetOptions(workers=2, telemetry_mode="metrics"),
        )
        assert inline.workers_spawned == 0 and fleet.workers_spawned == 2
        for report in (inline, fleet):
            assert report.status == "ok"
            assert [o.status for o in report.outcomes] == ["done"] * len(tasks)
            assert set(report.results) == set(shared)
            for name in shared:
                assert pickle.dumps(report.results[name]) == pickle.dumps(
                    shared[name]
                ), f"{name} diverged from the shared-telemetry reference"
            assert render_prometheus(
                report.telemetry.registry
            ) == render_prometheus(shared_tel.registry)
            assert (
                report.telemetry.registry.snapshot()
                == shared_tel.registry.snapshot()
            )
        assert [
            (o.name, o.status, o.attempts, o.error) for o in inline.outcomes
        ] == [(o.name, o.status, o.attempts, o.error) for o in fleet.outcomes]
        # in-process pieces are never pickled: their profile survives
        assert inline.telemetry.profiler is not None
        assert fleet.telemetry.profiler is None

    def test_interleaved_fluid_figure_units_match_in_process(self, tmp_path):
        """Fluid units of two internet figures, interleaved in the task
        list, on a 2-worker pool: results, registry and decision events
        equal the in-process run's.  The reference is the in-process
        executor, not one telemetry shared across tasks: fluid drop
        volumes are fractional counters, and both executors fold the
        same per-task pieces while a shared counter adds tick by tick."""
        tasks = [
            task
            for pair in zip(
                figure_tasks("fig13", settings()),
                figure_tasks("fig14", settings()),
            )
            for task in pair
            if task.unit.endswith((":ND", ":NA"))
        ]
        assert [t.figure for t in tasks] == ["fig13", "fig14"] * 2
        inline = run_fleet(tasks, None, FleetOptions(telemetry_mode="trace"))
        fleet = run_fleet(
            tasks,
            CheckpointStore(str(tmp_path / "store")),
            FleetOptions(workers=2, telemetry_mode="trace"),
        )
        assert inline.status == fleet.status == "ok"
        assert fleet.workers_spawned == 2
        for task in tasks:
            assert pickle.dumps(fleet.results[task.name]) == pickle.dumps(
                inline.results[task.name]
            ), task.name
        assert (
            fleet.telemetry.registry.snapshot()
            == inline.telemetry.registry.snapshot()
        )
        assert [e.to_dict() for e in fleet.telemetry.trace] == [
            e.to_dict() for e in inline.telemetry.trace
        ]
        assert len(fleet.telemetry.trace) > 0

    def test_completed_store_resumes_without_spawning(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "store"))
        tasks = figure_tasks("fig03", settings())
        first = run_fleet(tasks, store, FleetOptions(workers=1))
        assert first.status == "ok"
        assert first.workers_spawned >= 1

        second = run_fleet(tasks, store, FleetOptions(workers=1))
        assert second.status == "ok"
        assert second.workers_spawned == 0  # pre-salvage found everything
        assert [o.status for o in second.outcomes] == ["resumed"] * len(tasks)
        for name in first.results:
            assert pickle.dumps(second.results[name]) == pickle.dumps(
                first.results[name]
            )


class TestFaultTolerance:
    def test_transient_failure_retries_on_fresh_worker(self, tmp_path):
        task = FlakyTask(marker=str(tmp_path / "marker"))
        fleet = run_fleet(
            [task],
            CheckpointStore(str(tmp_path / "store")),
            FleetOptions(workers=1, retry=RetryPolicy(max_retries=2, seed=0)),
        )
        assert fleet.status == "ok"
        outcome = fleet.outcomes[0]
        assert outcome.status == "done"
        assert outcome.attempts == 2
        assert fleet.results[task.name] == "recovered"

    def test_poison_task_is_quarantined_with_reproducer(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "store"))
        fleet = run_fleet(
            [PoisonTask()],
            store,
            FleetOptions(workers=1, max_worker_deaths=2),
        )
        assert fleet.status == "quarantined"
        assert fleet.quarantined == ["poison"]
        outcome = fleet.outcomes[0]
        assert outcome.status == "quarantined"
        assert outcome.worker_deaths == 2
        # the poison job burned through distinct replacement workers
        assert fleet.workers_spawned >= 2
        assert "reproducer" in (outcome.error or "")
        quarantine_dir = os.path.join(store.root, "fleet", "quarantine")
        files = os.listdir(quarantine_dir)
        assert files, "no reproducer artifact written"

    def test_healthy_tasks_survive_a_poison_neighbour(self, tmp_path):
        tasks = [PoisonTask()] + figure_tasks("fig03", settings())
        fleet = run_fleet(
            tasks,
            CheckpointStore(str(tmp_path / "store")),
            FleetOptions(workers=2, max_worker_deaths=2),
        )
        assert fleet.status == "quarantined"
        by_name = {o.name: o for o in fleet.outcomes}
        assert by_name["poison"].status == "quarantined"
        assert by_name["fig03"].status == "done"
        assert "fig03" in fleet.results


class TestMergeExport:
    def test_merge_telemetry_reexported_from_package(self):
        # the CLI and CI lane import the reduction via the package root
        assert merge_telemetry([]).enabled is False
