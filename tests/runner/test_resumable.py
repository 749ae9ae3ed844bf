"""Kill/resume determinism for tick-level checkpointed runs.

The contract under test: a run interrupted at an arbitrary checkpoint
boundary and resumed from its pickled snapshot produces *bit-identical*
results to an uninterrupted run — for both the packet engine and the
fluid simulator.
"""

import pytest

from repro.core.config import FLocConfig
from repro.core.router import FLocPolicy
from repro.errors import Interrupted
from repro.inet.scenarios import build_internet_scenario
from repro.inet.simulator import FluidSimulator
from repro.net.policy import DropTailPolicy
from repro.runner import CheckpointStore, EngineRun, FluidRun, run_checkpointed
from repro.traffic.scenarios import build_tree_scenario

from ..sketch import churn


class FlipAfter:
    """Stand-in shutdown flag that trips after N polls (no real signals)."""

    def __init__(self, polls: int) -> None:
        self.polls = polls
        self.seen = 0
        self.signum = 15

    @property
    def requested(self) -> bool:
        self.seen += 1
        return self.seen > self.polls

    def raise_if_requested(self, context: str = "") -> None:
        raise Interrupted(f"simulated SIGTERM during {context}")


def build_engine_run():
    scenario = build_tree_scenario(
        scale_factor=0.05, attack_kind="cbr", attack_rate_mbps=2.0, seed=3
    )
    scenario.attach_policy(FLocPolicy(FLocConfig(s_max=25)))
    monitor = scenario.add_target_monitor(start_seconds=1.0)
    total = scenario.units.seconds_to_ticks(3.0)
    return EngineRun(payload=monitor, engine=scenario.engine, total_ticks=total)


def finalize_engine(run):
    monitor = run.payload
    return (
        run.engine.tick,
        run.engine.packets_emitted,
        run.engine.packets_delivered,
        sorted(monitor.service_counts.items()),
        sorted(monitor.drop_counts.items()),
    )


def build_flood_run():
    # drop-tail flood: the TCP sources starve into RTO back-off, so a
    # mid-run snapshot catches them asleep (next_wake in the future) with
    # route-resolved packets of the flood in flight
    scenario = build_tree_scenario(
        scale_factor=0.05, attack_kind="cbr", attack_rate_mbps=4.0, seed=3
    )
    scenario.attach_policy(DropTailPolicy())
    monitor = scenario.add_target_monitor()
    return EngineRun(
        payload=(monitor, scenario.legit_sources),
        engine=scenario.engine,
        total_ticks=600,
    )


def finalize_flood(run):
    monitor, sources = run.payload
    return (
        run.engine.packets_emitted,
        run.engine.packets_delivered,
        [(l.serviced_total, l.dropped_total) for l in run.engine.topology.links()],
        sorted(monitor.service_counts.items()),
        sorted(monitor.drop_counts.items()),
        [(s.packets_sent, s.timeouts, s.cwnd, s.next_wake) for s in sources],
    )


def assert_flood_snapshot_mid_sleep(run):
    engine = run.engine
    _, sources = run.payload
    asleep = [s for s in sources if s.next_wake > engine.tick]
    assert any(s.established and s.timeouts for s in asleep)
    waiting = [
        pkt
        for link in engine.topology.links()
        for pkt in (*link.queue, *link.arrivals_next)
    ]
    assert len(waiting) > 50
    # packets pickle without their resolved links; the resumed engine
    # re-stamps them before anything moves
    assert all(pkt.links == () for pkt in waiting)
    engine.run(1)
    assert all(
        pkt.links[pkt.hop] is link
        for link in engine.topology.links()
        for pkt in (*link.queue, *link.arrivals_next)
    )


def build_sketch_churn_run():
    # sketch-backed router under identifier churn: a mid-run snapshot
    # holds 64 path entries and their groups (one keyed by an aggregate),
    # each carrying the hash positions derived when it was allocated
    engine, policy, monitor = churn.build(**churn.AGGREGATING)
    return EngineRun(payload=(policy, monitor), engine=engine, total_ticks=400)


def finalize_sketch_churn(run):
    return churn.state_digest(*run.payload)


def assert_sketch_snapshot_carries_indices(run):
    policy, _ = run.payload
    assert run.engine.tick == 200 and len(policy.paths) == 64
    assert any(isinstance(key[0], str) for key in policy.groups)
    churn.assert_carried_equals_fresh(policy)


def build_fluid_run():
    scenario = build_internet_scenario(
        variant="f-root", n_as=120, n_legit_sources=300, n_legit_ases=30,
        n_bots=2_000, target_capacity=200.0, seed=7,
    )
    sim = FluidSimulator(scenario, strategy="floc", s_max=40, seed=7)
    return FluidRun(sim, ticks=120, warmup=40)


def finalize_fluid(run):
    result = run.sim.finish_run()
    return (result.shares, result.utilization)


@pytest.mark.parametrize(
    "build,finalize,polls,check_snapshot",
    [
        (build_engine_run, finalize_engine, 2, None),
        (build_flood_run, finalize_flood, 16, assert_flood_snapshot_mid_sleep),
        (
            build_sketch_churn_run,
            finalize_sketch_churn,
            8,
            assert_sketch_snapshot_carries_indices,
        ),
        (build_fluid_run, finalize_fluid, 2, None),
    ],
    ids=[
        "packet-engine",
        "packet-engine-asleep",
        "packet-engine-sketch-churn",
        "fluid-simulator",
    ],
)
def test_kill_resume_bit_identical(
    tmp_path, build, finalize, polls, check_snapshot
):
    reference = run_checkpointed(
        None, "ref", build, finalize, checkpoint_interval=1_000_000
    )

    store = CheckpointStore(str(tmp_path))
    with pytest.raises(Interrupted):
        run_checkpointed(
            store, "job", build, finalize,
            checkpoint_interval=25, shutdown=FlipAfter(polls=polls),
        )
    # the kill left a mid-run snapshot behind
    assert store.has("state", "job")
    if check_snapshot is not None:
        check_snapshot(store.load("state", "job"))

    resumed = run_checkpointed(
        store, "job", build, finalize, checkpoint_interval=25
    )
    assert resumed == reference
    # completed runs clean up their state snapshot
    assert not store.has("state", "job")


def test_resume_skips_build(tmp_path):
    store = CheckpointStore(str(tmp_path))
    with pytest.raises(Interrupted):
        run_checkpointed(
            store, "job", build_fluid_run, finalize_fluid,
            checkpoint_interval=30, shutdown=FlipAfter(polls=1),
        )

    def exploding_build():
        raise AssertionError("resume must load the snapshot, not rebuild")

    result = run_checkpointed(
        store, "job", exploding_build, finalize_fluid, checkpoint_interval=30
    )
    assert result[1] > 0  # utilization from the resumed simulator


def test_segmented_equals_monolithic_fluid():
    # FluidRun advancing in small segments == one uninterrupted sim.run()
    ref = run_checkpointed(
        None, "a", build_fluid_run, finalize_fluid, checkpoint_interval=7
    )
    mono = run_checkpointed(
        None, "b", build_fluid_run, finalize_fluid, checkpoint_interval=10_000
    )
    assert ref == mono


def test_checkpoint_interval_validated(tmp_path):
    with pytest.raises(ValueError):
        run_checkpointed(
            None, "x", build_fluid_run, finalize_fluid, checkpoint_interval=0
        )
