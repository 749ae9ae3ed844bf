"""Injectors: link flaps with rerouting, policy hooks, fluid degradation."""

import random

import numpy as np
import pytest

from repro.core.config import FLocConfig
from repro.core.router import FLocPolicy
from repro.errors import SimulationError
from repro.faults.injectors import (
    FluidLinkDegrade,
    LinkFlap,
    clock_jitter,
    router_restart,
    state_corruption,
)
from repro.inet.scenarios import build_internet_scenario
from repro.inet.simulator import FluidSimulator
from repro.net.engine import Engine
from repro.net.topology import Topology
from repro.tcp.source import TcpSource


def diamond_engine(seed=9):
    """h -> r1 -> {top | bot} -> r2 -> srv, with the top path preferred."""
    topo = Topology()
    topo.add_duplex_link("h", "r1", capacity=None)
    topo.add_duplex_link("r1", "top", capacity=None)
    topo.add_duplex_link("top", "r2", capacity=None)
    topo.add_duplex_link("r1", "bot", capacity=None, delay=2)
    topo.add_duplex_link("bot", "r2", capacity=None, delay=2)
    topo.add_duplex_link("r2", "srv", capacity=5.0, buffer=40)
    return Engine(topo, seed=seed), topo


RNG = random.Random(0)


class TestLinkFlap:
    def test_down_reroutes_and_up_restores_original_routes(self):
        engine, topo = diamond_engine()
        flow = engine.open_flow("h", "srv", path_id=(1,))
        engine.add_source(TcpSource(flow))
        original = flow.route
        assert "top" in original

        flap = LinkFlap("r1", "top")
        engine.run(50)
        flap.down(engine, engine.tick, RNG)
        assert not topo.link("r1", "top").up
        assert "bot" in flow.route and "top" not in flow.route

        engine.run(50)
        flap.up(engine, engine.tick, RNG)
        assert topo.link("r1", "top").up
        assert flow.route == original

    def test_flow_without_alternative_black_holes(self):
        topo = Topology()
        topo.add_duplex_link("h", "r", capacity=None)
        topo.add_duplex_link("r", "srv", capacity=5.0, buffer=20)
        engine = Engine(topo, seed=1)
        flow = engine.open_flow("h", "srv", path_id=(1,))
        engine.add_source(TcpSource(flow))
        engine.run(20)
        delivered_before = topo.link("r", "srv").serviced_total

        flap = LinkFlap("r", "srv")
        flap.down(engine, engine.tick, RNG)
        engine.run(30)
        # nothing got through, the packets were dead-dropped, no crash
        assert topo.link("r", "srv").serviced_total == delivered_before
        assert topo.link("r", "srv").dropped_total > 0

        flap.up(engine, engine.tick, RNG)
        engine.run(60)
        assert topo.link("r", "srv").serviced_total > delivered_before

    def test_traffic_keeps_flowing_over_backup_path(self):
        engine, topo = diamond_engine()
        flow = engine.open_flow("h", "srv", path_id=(1,))
        engine.add_source(TcpSource(flow))
        engine.run(50)
        before = topo.link("r2", "srv").serviced_total
        flap = LinkFlap("r1", "top")
        flap.down(engine, engine.tick, RNG)
        engine.run(100)
        assert topo.link("r2", "srv").serviced_total > before


class TestPolicyInjectors:
    def attached_policy(self):
        topo = Topology()
        topo.add_duplex_link("h", "r", capacity=None)
        topo.add_duplex_link("r", "srv", capacity=4.0, buffer=30)
        policy = FLocPolicy(FLocConfig())
        topo.set_policy("r", "srv", policy)
        engine = Engine(topo, seed=2)
        flow = engine.open_flow("h", "srv", path_id=(1,))
        engine.add_source(TcpSource(flow))
        engine.run(100)
        return engine, policy

    def test_router_restart_enters_warmup(self):
        engine, policy = self.attached_policy()
        assert policy.paths and not policy.in_warmup
        router_restart("r", "srv")(engine, engine.tick, RNG)
        assert policy.in_warmup and not policy.paths

    def test_state_corruption_full_fraction_forgets_everything(self):
        engine, policy = self.attached_policy()
        assert policy.paths
        state_corruption("r", "srv", fraction=1.0)(engine, engine.tick, RNG)
        assert not policy.paths

    def test_clock_jitter_sets_bounded_offset(self):
        engine, policy = self.attached_policy()
        clock_jitter("r", "srv", max_offset=5)(engine, engine.tick, RNG)
        assert -5 <= policy._clock_offset <= 5

    def test_missing_policy_is_an_error(self):
        topo = Topology()
        topo.add_duplex_link("a", "b", capacity=1.0, buffer=5)
        engine = Engine(topo, seed=0)
        with pytest.raises(SimulationError):
            router_restart("a", "b")(engine, 0, RNG)


class TestFluidLinkDegrade:
    def scenario(self):
        return build_internet_scenario(
            n_as=60, n_legit_sources=100, n_legit_ases=20, n_bots=500,
            target_capacity=80.0, seed=4,
        )

    def test_down_scales_and_up_restores(self):
        scn = self.scenario()

        class Host:
            def __init__(self, scn):
                self.scn = scn

        host = Host(scn)
        original = float(scn.link_capacity[3])
        degrade = FluidLinkDegrade(3, factor=0.25)
        degrade.down(host, 0, RNG)
        assert scn.link_capacity[3] == pytest.approx(original * 0.25)
        # idempotent while active: does not compound
        degrade.down(host, 1, RNG)
        assert scn.link_capacity[3] == pytest.approx(original * 0.25)
        degrade.up(host, 2, RNG)
        assert scn.link_capacity[3] == pytest.approx(original)

    def test_factor_zero_kills_the_uplink(self):
        """0 is "no limit" to the survival pass, so a dead uplink must get
        a positive capacity: nothing from its subtree survives it, and
        every other AS survives as before."""
        scn = self.scenario()
        sim = FluidSimulator(scn, strategy="floc", seed=4)
        rates = sim._send_rates()
        before = sim._upstream_survival(rates)
        asn = int(np.bincount(scn.flow_origin_as)[1:].argmax()) + 1
        degrade = FluidLinkDegrade(asn, factor=0.0)
        degrade.down(sim, 0, RNG)
        assert 0.0 < scn.link_capacity[asn] < 1e-300
        after = sim._upstream_survival(rates)
        behind = np.array(
            [asn in scn.topology.path_of(a) for a in range(scn.topology.n_as)]
        )
        assert np.all(after[behind] == 0.0)
        assert after[~behind].tobytes() == before[~behind].tobytes()
        degrade.up(sim, 1, RNG)
        assert sim._upstream_survival(rates).tobytes() == before.tobytes()

    def test_positive_factor_keeps_an_unlimited_uplink_unlimited(self):
        scn = self.scenario()
        scn.link_capacity[3] = 0.0

        class Host:
            def __init__(self, scn):
                self.scn = scn

        FluidLinkDegrade(3, factor=0.5).down(Host(scn), 0, RNG)
        assert scn.link_capacity[3] == 0.0

    def test_negative_factor_rejected(self):
        with pytest.raises(SimulationError):
            FluidLinkDegrade(1, factor=-0.5)
