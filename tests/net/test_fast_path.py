"""Edges of the engine's per-hop fast path: routes resolved once at emission,
wire links that forward without queueing, and what happens when the
topology, a flow's route or a link's observers change mid-run."""

import pickle

import pytest

from repro.errors import TopologyError
from repro.net.engine import Engine, LinkMonitor
from repro.net.packet import DATA, Packet
from repro.net.topology import Topology
from repro.sanitize import install_sanitizer
from repro.traffic.cbr import CbrSource
from tests.net.test_engine import OneShotSource, chain_engine


def diamond():
    """a -> {x | y} -> b, every link an unbounded wire."""
    topo = Topology()
    for mid in ("x", "y"):
        topo.add_duplex_link("a", mid)
        topo.add_duplex_link(mid, "b")
    return topo


def cbr_engine(topo, route=None, rate=1.0):
    """One CBR flow a -> b under the strict sanitizer, which checks packet
    conservation and the route-links invariant at the start of every tick."""
    engine = Engine(topo, seed=1)
    flow = engine.open_flow("a", "b", path_id=(1,), route=route)
    engine.add_source(CbrSource(flow, rate=rate, handshake=False))
    install_sanitizer(engine, "strict")
    return engine, flow


class TestWireLinks:
    def test_monitor_attached_mid_run_counts_from_that_tick(self):
        engine, flow = cbr_engine(diamond(), route=["a", "x", "b"])
        engine.run(10)
        link = engine.topology.link("x", "b")
        assert link.serviced_total == 9  # first packet reached x->b at tick 1
        monitor = engine.add_monitor("x", "b", LinkMonitor(record_series=True))
        engine.run(5)
        assert monitor.service_counts[flow.flow_id] == 5
        assert [tick for tick, _ in monitor.series] == [10, 11, 12, 13, 14]
        assert link.serviced_total == 14

    def test_fail_and_restore_with_packets_on_the_link(self):
        engine, flow = cbr_engine(diamond(), route=["a", "x", "b"], rate=3.0)
        engine.run(10)
        link = engine.fail_link("x", "b")
        assert link.dropped_total == 3  # tick 9's emissions, waiting on x->b
        served = link.serviced_total
        engine.run(3)
        # a->x keeps forwarding into the dead link: the emissions of ticks
        # 10 and 11 are lost on arrival, tick 12's arrive next tick
        assert link.dropped_total == 3 + 6
        assert link.serviced_total == served
        assert len(link.arrivals_next) == 3
        engine.restore_link("x", "b")
        engine.run(5)
        assert link.dropped_total == 3 + 6
        assert link.serviced_total == served + 3 * 5

    def test_no_delivery_while_the_only_path_is_down(self):
        engine, flow = chain_engine(2)
        src = OneShotSource(flow, count=4)
        engine.add_source(src)
        install_sanitizer(engine, "strict")
        engine.run(1)  # packets now wait on r1 -> r2
        engine.fail_link("r1", "r2")
        engine.run(20)
        assert src.acks == []
        assert engine.packets_delivered == 0
        assert engine.topology.link("r1", "r2").dropped_total == 4
        assert engine.in_flight_count() == 0

    def test_long_haul_hop_between_wire_links(self):
        topo = Topology()
        topo.add_duplex_link("a", "x")
        topo.add_duplex_link("x", "b", delay=4)
        engine = Engine(topo, seed=1)
        flow = engine.open_flow("a", "b", path_id=(1,))
        src = OneShotSource(flow, count=2)
        engine.add_source(src)
        install_sanitizer(engine, "strict")
        engine.run(20)
        # a->x (1) + x->b (4) out, b->x (4) + x->a (1) back
        assert src.acks == [(0, 10), (1, 10)]


class TestRouteResolution:
    def test_reroute_flow_in_flight_packets_finish_the_old_route(self):
        engine, flow = cbr_engine(diamond(), route=["a", "x", "b"])
        engine.run(5)
        via_x, via_y = (engine.topology.link(m, "b") for m in ("x", "y"))
        on_old_route = 1  # the tick-4 emission has crossed a->x only
        served_x = via_x.serviced_total
        engine.reroute_flow(flow, route=["a", "y", "b"])
        engine.run(5)
        assert via_x.serviced_total == served_x + on_old_route
        assert via_y.serviced_total == 4  # ticks 5..8 have reached y->b

    def test_direct_route_assignment_is_followed_without_a_hook(self):
        # what LinkFlap.up does: no engine call, just a new tuple
        engine, flow = cbr_engine(diamond(), route=["a", "x", "b"])
        engine.run(5)
        flow.route = ("a", "y", "b")
        engine.run(5)
        assert engine.topology.link("y", "b").serviced_total == 4
        assert engine.topology.link("x", "b").serviced_total == 5

    def test_hand_built_packet_without_a_source(self):
        topo = diamond()
        engine = Engine(topo, seed=1)
        flow = engine.open_flow("a", "b", path_id=(1,))
        install_sanitizer(engine, "strict")
        pkt = Packet(flow.flow_id, DATA, 0, flow.path_id, ["a", "y", "b"],
                     "a", "b", 0)
        assert pkt.links == ()
        engine.emit(pkt)
        assert pkt.links == (topo.link("a", "y"), topo.link("y", "b"), None)
        engine.run(4)
        assert engine.packets_delivered == 1  # the ACK is still on its way
        engine.run(4)
        assert engine.packets_delivered == 2

    def test_unknown_hop_raises_at_emit(self):
        engine = Engine(diamond(), seed=1)
        flow = engine.open_flow("a", "b", path_id=(1,))
        pkt = Packet(flow.flow_id, DATA, 0, flow.path_id, ("a", "x", "nowhere"),
                     "a", "b", 0)
        with pytest.raises(TopologyError, match="nowhere"):
            engine.emit(pkt)

    def test_replaced_link_is_crossed_by_packets_in_flight_and_new(self):
        topo = diamond()
        topo.add_duplex_link("b", "c")
        engine = Engine(topo, seed=1)
        flow = engine.open_flow("a", "c", path_id=(1,), route=["a", "x", "b", "c"])
        engine.add_source(CbrSource(flow, rate=1.0, handshake=False))
        engine.run(5)
        old = topo.link("b", "c")
        served_old = old.serviced_total
        new = topo.add_link("b", "c", capacity=1.0, buffer=10)
        engine.run(5)
        # tick 3's packet already waits on the old object, which services it
        # one last time; tick 4's, resolved against the old object but still
        # on x->b, and every later emission cross the new one
        assert old.serviced_total == served_old + 1
        assert new.serviced_total == 4
        assert new is topo.link("b", "c")

    def test_mesh_engine_pickles_mid_run_and_resumes_identically(self):
        # packets must not pickle their links: through the links' queues
        # that nests the whole network into one recursion
        side = 8
        topo = Topology()
        for i in range(side):
            for j in range(side):
                if i + 1 < side:
                    topo.add_duplex_link((i, j), (i + 1, j))
                if j + 1 < side:
                    topo.add_duplex_link((i, j), (i, j + 1))
        engine = Engine(topo, seed=1)
        rng = engine.spawn_rng("mesh-flows")
        nodes = [(i, j) for i in range(side) for j in range(side)]
        for k in range(80):
            a, b = rng.sample(nodes, 2)
            flow = engine.open_flow(a, b, path_id=(k,))
            engine.add_source(CbrSource(flow, rate=0.5, handshake=False))
        install_sanitizer(engine, "strict")
        engine.run(40)
        clone = pickle.loads(pickle.dumps(engine))
        for run in (engine, clone):
            run.run(40)
        assert clone.packets_delivered == engine.packets_delivered > 0
        assert [l.serviced_total for l in clone.topology.links()] == [
            l.serviced_total for l in engine.topology.links()
        ]
