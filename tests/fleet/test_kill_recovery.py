"""Satellite: SIGKILL a worker mid-campaign; the sweep still matches serial.

The fault plan arms a ``kill_worker`` process fault inside the worker
that picks up the victim campaign: a timer SIGKILLs the worker partway
through the simulation.  The supervisor must convict the dead worker,
salvage the campaign from its tick-level checkpoints, finish it on a
replacement worker, and produce run digests byte-identical to a serial
sweep that never saw a fault.

The figure-unit case kills from outside instead, the instant the
victim's mid-run ``FluidRun`` snapshot is in the store, so the
replacement provably resumes from that snapshot rather than from tick 0.
"""

import glob
import json
import os
import pickle
import signal
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.chaos.engine import ChaosOptions, chaos_tasks, run_chaos
from repro.errors import ConfigError
from repro.experiments.common import FunctionalSettings
from repro.fleet import (
    FleetOptions,
    ProcessFault,
    ProcessFaultPlan,
    run_fleet,
    sample_process_faults,
)
from repro.runner import CheckpointStore, UnitContext, figure_tasks
from repro.trace import Tracer, merge_trace, use_tracer


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


def _kill_worker_once_checkpointed(root, victim, stop):
    """SIGKILL whichever worker runs ``victim`` as soon as the store at
    ``root`` holds its mid-run state; returns the pid it killed."""
    store = CheckpointStore(root)
    while not stop.wait(0.002):
        store.refresh()
        if not store.has("state", victim):
            continue
        for path in glob.glob(os.path.join(root, "fleet", "hb", "*.hb.json")):
            with open(path, encoding="utf-8") as fh:
                beat = json.load(fh)
            if beat["job"] == victim:
                os.kill(beat["pid"], signal.SIGKILL)
                return beat["pid"]
    return None


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

    def test_sigkilled_fluid_unit_resumes_from_snapshot(self, tmp_path):
        tasks = [
            task
            for task in figure_tasks("fig13", FunctionalSettings())
            if task.unit.endswith((":NA", ":A-lo"))
        ]
        victim = tasks[0].name
        want = {t.name: t.run(UnitContext(name=t.name)) for t in tasks}

        root = str(tmp_path / "store")
        stop = threading.Event()
        tracer = Tracer(str(tmp_path / "trace"), proc="main")
        with ThreadPoolExecutor(max_workers=1) as pool:
            killer = pool.submit(
                _kill_worker_once_checkpointed, root, victim, stop
            )
            try:
                with use_tracer(tracer):
                    fleet = run_fleet(
                        tasks,
                        CheckpointStore(root),
                        FleetOptions(
                            workers=2,
                            heartbeat_timeout_seconds=5.0,
                            max_worker_deaths=3,
                        ),
                    )
            finally:
                stop.set()
                tracer.close()
            assert killer.result(timeout=10.0), "no mid-run snapshot seen"

        assert fleet.status == "ok"
        by_name = {o.name: o for o in fleet.outcomes}
        assert by_name[victim].worker_deaths == 1
        assert fleet.workers_spawned == 3, "no replacement worker was spawned"
        # the replacement loaded the dead worker's snapshot: it did not
        # start the unit over
        loads = [
            span for span in merge_trace(str(tmp_path / "trace")).spans
            if span.name == "salvage.load" and span.args["unit"] == victim
        ]
        assert [span.args["ticks_done"] for span in loads] == [200]
        for task in tasks:
            assert pickle.dumps(fleet.results[task.name]) == pickle.dumps(
                want[task.name]
            ), task.name
