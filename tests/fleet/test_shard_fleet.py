"""Shard gangs on the fleet: atomic launch, bit-identity, kill salvage.

All shards of one simulation unit form a gang; the pool must seat the
whole gang at once (a partial launch deadlocks at the first barrier),
keep one telemetry piece per gang, and — when a shard worker is
SIGKILLed mid-run — salvage that shard from its last barrier-epoch
checkpoint onto a replacement worker while the surviving peers wait at
the barrier.  The merged unit result must stay byte-identical to the
serial simulator's throughout.
"""

import pickle

import pytest

from repro.errors import ConfigError
from repro.fleet import (
    FleetOptions,
    ProcessFault,
    ProcessFaultPlan,
    run_fleet,
)
from repro.inet.scenarios import build_internet_scenario
from repro.inet.shard import merge_shard_results
from repro.inet.simulator import FluidSimulator
from repro.runner import CheckpointStore, ShardUnitTask, shard_figure_tasks

SETTINGS = {
    "n_as": 120,
    "n_legit_sources": 240,
    "n_legit_ases": 30,
    "n_bots": 2_000,
    "target_capacity": 150.0,
    "ticks": 60,
    "warmup": 30,
    "seed": 7,
}


def _tasks(label, strategy, s_max, n_shards, barrier_timeout=90.0):
    return [
        ShardUnitTask(
            figure="fig13",
            unit=f"fig13:f-root:{label}",
            variant="f-root",
            placement="localized",
            label=label,
            strategy=strategy,
            s_max=s_max,
            shard=shard,
            n_shards=n_shards,
            epoch_ticks=20,
            barrier_timeout_seconds=barrier_timeout,
            settings=dict(SETTINGS),
        )
        for shard in range(n_shards)
    ]


def _serial(strategy, s_max=None):
    scenario = build_internet_scenario(
        variant="f-root",
        placement="localized",
        n_as=SETTINGS["n_as"],
        n_legit_sources=SETTINGS["n_legit_sources"],
        n_legit_ases=SETTINGS["n_legit_ases"],
        n_bots=SETTINGS["n_bots"],
        target_capacity=SETTINGS["target_capacity"],
        seed=SETTINGS["seed"],
    )
    sim = FluidSimulator(
        scenario, strategy=strategy, s_max=s_max, seed=SETTINGS["seed"]
    )
    return sim.run(ticks=SETTINGS["ticks"], warmup=SETTINGS["warmup"])


def _merge(fleet, tasks):
    return merge_shard_results([fleet.results[t.name] for t in tasks])


class TestGangValidation:
    def test_gang_larger_than_pool_rejected(self, tmp_path):
        tasks = _tasks("NA", "floc", None, n_shards=3)
        with pytest.raises(ConfigError, match="gang"):
            run_fleet(
                tasks,
                CheckpointStore(str(tmp_path / "store")),
                FleetOptions(workers=2),
            )

    def test_shard_tasks_only_for_internet_figures(self):
        with pytest.raises(ConfigError, match="internet-scale"):
            shard_figure_tasks("fig9", 2)
        with pytest.raises(ConfigError, match="n_shards"):
            shard_figure_tasks("fig13", 0)

    def test_single_shard_task_has_no_gang(self):
        (task,) = _tasks("ND", "nd", None, n_shards=1)
        assert task.gang is None
        assert _tasks("ND", "nd", None, n_shards=2)[0].gang == task.unit


class TestFleetBitIdentity:
    def test_interleaved_gangs_complete_and_match_serial(self, tmp_path):
        """Two 2-shard gangs on a 2-worker pool, interleaved in the task
        list: only an atomic gang launch avoids seating one shard of
        each unit (which would deadlock both at their first barrier)."""
        nd = _tasks("ND", "nd", None, n_shards=2)
        floc = _tasks("NA", "floc", None, n_shards=2)
        interleaved = [nd[0], floc[0], nd[1], floc[1]]
        fleet = run_fleet(
            interleaved,
            CheckpointStore(str(tmp_path / "store")),
            FleetOptions(workers=2),
        )
        assert fleet.status == "ok"
        assert pickle.dumps(_merge(fleet, nd)) == pickle.dumps(_serial("nd"))
        assert pickle.dumps(_merge(fleet, floc)) == pickle.dumps(
            _serial("floc")
        )


class TestShardKillRecovery:
    def test_sigkilled_shard_salvaged_at_barrier_digest_identical(
        self, tmp_path
    ):
        tasks = _tasks("NA", "floc", None, n_shards=2)
        victim = tasks[0].name
        plan = ProcessFaultPlan(
            faults=(
                ProcessFault(
                    task=victim, kind="kill_worker", delay_seconds=0.4
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
        assert by_name[victim].worker_deaths >= 1
        assert fleet.workers_spawned > 2, "no replacement worker was spawned"
        assert pickle.dumps(_merge(fleet, tasks)) == pickle.dumps(
            _serial("floc")
        )
