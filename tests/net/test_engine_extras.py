"""Engine extras: hooks, time helpers, interleaving, series recording."""

import pytest

from repro.net.engine import Engine, LinkMonitor
from repro.net.packet import DATA, Packet
from repro.net.topology import Topology
from repro.tcp.source import TcpSource
from repro.units import UnitScale
from tests.net.test_engine import OneShotSource, chain_engine


class TestHooks:
    def test_tick_hook_called_every_tick(self):
        engine, flow = chain_engine(1)
        seen = []
        engine.add_tick_hook(lambda eng, tick: seen.append(tick))
        engine.run(5)
        assert seen == [0, 1, 2, 3, 4]

    def test_run_seconds_uses_scale(self):
        topo = Topology()
        topo.add_duplex_link("a", "b")
        engine = Engine(topo, scale=UnitScale(tick_seconds=0.5), seed=1)
        engine.run_seconds(3.0)
        assert engine.tick == 6

    def test_policy_ticks_when_link_idle(self):
        from repro.net.policy import LinkPolicy

        class CountingPolicy(LinkPolicy):
            def __init__(self):
                self.ticks = 0

            def on_tick(self, tick):
                self.ticks += 1

        topo = Topology()
        topo.add_duplex_link("a", "b", capacity=1.0, buffer=5)
        policy = CountingPolicy()
        topo.set_policy("a", "b", policy)
        engine = Engine(topo, seed=1)
        engine.run(40)  # no traffic at all
        assert policy.ticks == 40


class TestInterleave:
    def _packets(self, engine, flows, counts):
        out = []
        for flow, count in zip(flows, counts):
            for seq in range(count):
                out.append(
                    Packet(flow.flow_id, DATA, seq, flow.path_id,
                           flow.route, flow.src_host, flow.dst_host, 0)
                )
        return out

    def test_per_flow_order_preserved(self):
        engine, flow = chain_engine(1)
        flow2 = engine.open_flow("host", "srv", path_id=(2,))
        engine._start()
        arrivals = self._packets(engine, [flow, flow2], [20, 20])
        mixed = engine._interleave(arrivals)
        assert len(mixed) == 40
        for f in (flow, flow2):
            seqs = [p.seq for p in mixed if p.flow_id == f.flow_id]
            assert seqs == sorted(seqs)

    def test_flows_actually_mix(self):
        engine, flow = chain_engine(1)
        flow2 = engine.open_flow("host", "srv", path_id=(2,))
        engine._start()
        arrivals = self._packets(engine, [flow, flow2], [30, 30])
        mixed = engine._interleave(arrivals)
        # the first 30 positions are (almost surely) not all flow 1
        first_half_ids = {p.flow_id for p in mixed[:30]}
        assert len(first_half_ids) == 2

    def test_single_flow_returned_as_is(self):
        engine, flow = chain_engine(1)
        engine._start()
        arrivals = self._packets(engine, [flow], [10])
        assert engine._interleave(arrivals) == arrivals


class TestMonitorSeries:
    def test_series_recorded_per_tick(self):
        engine, flow = chain_engine(1, capacity=2.0, buffer=50)
        src = OneShotSource(flow, count=6)
        engine.add_source(src)
        monitor = LinkMonitor(record_series=True)
        engine.add_monitor("host", "r1", monitor)
        engine.run(10)
        total = sum(count for _, count in monitor.series)
        # the final partial tick stays in the accumulator; everything
        # recorded is bounded by capacity per tick
        assert all(count <= 2 for _, count in monitor.series)
        assert total + monitor.series.pending_value == 6

    def test_drop_counts_recorded(self):
        engine, flow = chain_engine(1, capacity=1.0, buffer=2)
        src = OneShotSource(flow, count=10)
        engine.add_source(src)
        monitor = engine.add_monitor("host", "r1")
        engine.run(10)
        assert monitor.total_dropped == 8
        assert monitor.drop_counts[flow.flow_id] == 8


class TestTwoBottlenecks:
    def test_policies_on_two_links_coexist(self):
        """Packets crossing two policed links are charged at both."""
        from repro.baselines.red import RedPolicy

        topo = Topology()
        topo.add_duplex_link("h", "r1", capacity=None)
        topo.add_duplex_link("r1", "r2", capacity=3.0, buffer=30)
        topo.add_duplex_link("r2", "srv", capacity=2.0, buffer=30)
        topo.set_policy("r1", "r2", RedPolicy())
        topo.set_policy("r2", "srv", RedPolicy())
        engine = Engine(topo, seed=5)
        flow = engine.open_flow("h", "srv", path_id=(1,))
        engine.add_source(TcpSource(flow))
        monitor = engine.add_monitor("r2", "srv")
        engine.run(1500)
        rate = monitor.total_serviced / 1500.0
        # throughput is set by the narrower second bottleneck
        assert rate == pytest.approx(2.0, rel=0.2)
