"""Satellite: SIGKILL a worker mid-campaign; the sweep still matches serial.

The fault plan arms a ``kill_worker`` process fault inside the worker
that picks up the victim campaign: a timer SIGKILLs the worker partway
through the simulation.  The supervisor must convict the dead worker,
salvage the campaign from its tick-level checkpoints, finish it on a
replacement worker, and produce run digests byte-identical to a serial
sweep that never saw a fault.
"""

import pytest

from repro.chaos.engine import ChaosOptions, chaos_tasks, run_chaos
from repro.errors import ConfigError
from repro.fleet import (
    FleetOptions,
    ProcessFault,
    ProcessFaultPlan,
    run_fleet,
    sample_process_faults,
)
from repro.runner import CheckpointStore


def options():
    return ChaosOptions(
        seed=11, campaigns=2, simulator="both", shrink=False,
        artifact_dir=None,
    )


def digests(results):
    return {name: results[name]["digest"] for name in sorted(results)}


class TestFaultPlan:
    def test_sample_is_deterministic_and_bounded(self):
        names = [f"campaign-{i:03d}" for i in range(5)]
        a = sample_process_faults(3, names, 2)
        b = sample_process_faults(3, names, 2)
        assert a == b
        assert len(a.faults) == 2
        assert {f.task for f in a.faults} <= set(names)
        assert all(f.kind in ("kill_worker", "stall_worker") for f in a.faults)

    def test_invalid_fault_kind_rejected(self):
        with pytest.raises(ConfigError):
            ProcessFault(task="x", kind="meteor_strike", delay_seconds=0.1)


class TestKillRecovery:
    def test_sigkilled_worker_resumes_elsewhere_digest_identical(self, tmp_path):
        serial = run_chaos(options())
        assert serial.job.status == "ok"

        tasks = chaos_tasks(options())
        victim = tasks[0].name
        plan = ProcessFaultPlan(
            faults=(
                ProcessFault(
                    task=victim, kind="kill_worker", delay_seconds=0.3
                ),
            )
        )
        fleet = run_fleet(
            tasks,
            CheckpointStore(str(tmp_path / "store")),
            FleetOptions(
                workers=2,
                fault_plan=plan,
                heartbeat_timeout_seconds=5.0,
                max_worker_deaths=3,
            ),
        )
        assert fleet.status == "ok"
        by_name = {o.name: o for o in fleet.outcomes}
        # the victim's first worker died: either mid-task (salvaged and
        # finished elsewhere) or inside the report window (result loaded
        # straight from the store)
        assert by_name[victim].worker_deaths >= 1
        assert fleet.workers_spawned > 2, "no replacement worker was spawned"
        assert digests(fleet.results) == digests(serial.job.results)

    def test_stalled_worker_is_convicted_and_digest_identical(self, tmp_path):
        serial = run_chaos(options())
        tasks = chaos_tasks(options())
        victim = tasks[-1].name
        plan = ProcessFaultPlan(
            faults=(
                ProcessFault(
                    task=victim, kind="stall_worker", delay_seconds=0.2
                ),
            )
        )
        fleet = run_fleet(
            tasks,
            CheckpointStore(str(tmp_path / "store")),
            FleetOptions(
                workers=2,
                fault_plan=plan,
                heartbeat_timeout_seconds=2.0,
                max_worker_deaths=3,
            ),
        )
        assert fleet.status == "ok"
        assert fleet.workers_spawned > 2
        assert digests(fleet.results) == digests(serial.job.results)
