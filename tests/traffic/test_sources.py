"""Attack traffic sources: CBR pacing, Shrew duty cycle, covert fanout."""

import pytest

from repro.net.engine import Engine
from repro.net.topology import Topology
from repro.traffic.cbr import CbrSource
from repro.traffic.covert import CovertSource
from repro.traffic.shrew import ShrewSource


def simple_engine(n_servers=1):
    topo = Topology()
    topo.add_duplex_link("bot", "r0", capacity=None)
    topo.add_duplex_link("r0", "hub", capacity=None)
    for i in range(n_servers):
        topo.add_duplex_link("hub", f"srv{i}", capacity=None)
    return Engine(topo, seed=9)


class TestCbr:
    def test_handshake_precedes_data(self):
        engine = simple_engine()
        flow = engine.open_flow("bot", "srv0", path_id=(1,), is_attack=True)
        src = CbrSource(flow, rate=2.0)
        engine.add_source(src)
        engine.run(5)
        assert not src.established or src.packets_sent == 0 or src.established

        engine.run(20)
        assert src.established
        assert src.packets_sent > 0

    def test_rate_is_respected(self):
        engine = simple_engine()
        flow = engine.open_flow("bot", "srv0", path_id=(1,), is_attack=True)
        src = CbrSource(flow, rate=2.5)
        engine.add_source(src)
        monitor = engine.add_monitor("r0", "hub")
        engine.run(500)
        # rate should be ~2.5 pkts/tick once established (minus handshake)
        assert monitor.total_serviced == pytest.approx(2.5 * 500, rel=0.05)

    def test_fractional_rate_accumulates(self):
        engine = simple_engine()
        flow = engine.open_flow("bot", "srv0", path_id=(1,), is_attack=True)
        src = CbrSource(flow, rate=0.25, handshake=False)
        engine.add_source(src)
        engine.run(400)
        assert src.packets_sent == pytest.approx(100, abs=2)

    def test_stop_tick(self):
        engine = simple_engine()
        flow = engine.open_flow("bot", "srv0", path_id=(1,), is_attack=True)
        src = CbrSource(flow, rate=1.0, handshake=False, stop_tick=100)
        engine.add_source(src)
        engine.run(400)
        assert src.packets_sent == pytest.approx(100, abs=1)

    def test_no_handshake_mode_sends_immediately(self):
        engine = simple_engine()
        flow = engine.open_flow("bot", "srv0", path_id=(1,), is_attack=True)
        src = CbrSource(flow, rate=1.0, handshake=False)
        engine.add_source(src)
        engine.run(3)
        assert src.packets_sent == 3


class TestShrew:
    def test_duty_cycle(self):
        engine = simple_engine()
        flow = engine.open_flow("bot", "srv0", path_id=(1,), is_attack=True)
        src = ShrewSource(
            flow, burst_rate=4.0, period_ticks=20, on_ticks=5, handshake=False
        )
        engine.add_source(src)
        engine.run(400)
        # average rate = 4.0 * 5/20 = 1.0
        assert src.packets_sent == pytest.approx(400, rel=0.05)

    def test_burst_confined_to_on_phase(self):
        engine = simple_engine()
        flow = engine.open_flow("bot", "srv0", path_id=(1,), is_attack=True)
        src = ShrewSource(
            flow, burst_rate=3.0, period_ticks=10, on_ticks=2, phase=0,
            handshake=False,
        )
        assert src.current_rate(0) == 3.0
        assert src.current_rate(1) == 3.0
        assert src.current_rate(2) == 0.0
        assert src.current_rate(9) == 0.0
        assert src.current_rate(10) == 3.0

    def test_phase_shifts_burst(self):
        engine = simple_engine()
        flow = engine.open_flow("bot", "srv0", path_id=(1,), is_attack=True)
        src = ShrewSource(
            flow, burst_rate=3.0, period_ticks=10, on_ticks=2, phase=5,
            handshake=False,
        )
        assert src.current_rate(0) == 0.0
        assert src.current_rate(5) == 3.0

    def test_invalid_parameters_rejected(self):
        engine = simple_engine()
        flow = engine.open_flow("bot", "srv0", path_id=(1,), is_attack=True)
        with pytest.raises(ValueError):
            ShrewSource(flow, burst_rate=1.0, period_ticks=0, on_ticks=1)
        with pytest.raises(ValueError):
            ShrewSource(flow, burst_rate=1.0, period_ticks=10, on_ticks=11)


class TestCovert:
    def test_fanout_flows_to_distinct_destinations(self):
        engine = simple_engine(n_servers=4)
        flows = [
            engine.open_flow("bot", f"srv{i}", path_id=(1,), is_attack=True)
            for i in range(4)
        ]
        src = CovertSource(flows, per_flow_rate=0.5)
        engine.add_source(src)
        assert src.fanout == 4
        monitor = engine.add_monitor("r0", "hub")
        engine.run(300)
        # every sub-flow carries traffic
        for flow in flows:
            assert monitor.service_counts.get(flow.flow_id, 0) > 0

    def test_flows_must_share_source_host(self):
        engine = simple_engine(n_servers=2)
        f1 = engine.open_flow("bot", "srv0", path_id=(1,), is_attack=True)
        topo = engine.topology
        topo.add_duplex_link("bot2", "r0", capacity=None)
        f2 = engine.open_flow("bot2", "srv1", path_id=(1,), is_attack=True)
        with pytest.raises(ValueError):
            CovertSource([f1, f2], per_flow_rate=0.5)

    def test_empty_flows_rejected(self):
        with pytest.raises(ValueError):
            CovertSource([], per_flow_rate=0.5)
