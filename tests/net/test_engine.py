"""Engine semantics: per-hop timing, capacity, buffering, delivery, ACKs."""

from typing import Hashable, NamedTuple, Optional, Sequence, Tuple

import pytest

from repro import FLocConfig, FLocPolicy
from repro.net.engine import Engine, LinkMonitor
from repro.net.packet import ACK, DATA, SYN, SYNACK, Packet
from repro.net.source import TrafficSource
from repro.net.topology import Topology


class Reply(NamedTuple):
    """Every field of an ACK or SYN-ACK as it reached its source."""

    kind: int
    seq: int
    tick: int
    path_id: Tuple[int, ...]
    route: Sequence[Hashable]
    src_addr: Hashable
    dst_addr: Hashable
    sent_tick: int
    capability: Optional[bytes]


class OneShotSource(TrafficSource):
    """Emits a fixed number of data packets at tick 0, records ACKs:
    ``(seq, tick)`` in ``acks`` / ``synacks``, every field in ``replies``.
    ``src_addr`` overrides the address the packets claim to come from."""

    def __init__(self, flow, count=1, kind=DATA, src_addr=None):
        self.flow = flow
        self.count = count
        self.kind = kind
        self.src_addr = flow.src_host if src_addr is None else src_addr
        self.acks = []
        self.synacks = []
        self.replies = []
        self._sent = False

    def flows(self):
        return (self.flow,)

    def on_tick(self, engine, tick):
        if self._sent:
            return
        self._sent = True
        for seq in range(self.count):
            engine.emit(
                Packet(
                    flow_id=self.flow.flow_id,
                    kind=self.kind,
                    seq=seq,
                    path_id=self.flow.path_id,
                    route=self.flow.route,
                    src_addr=self.src_addr,
                    dst_addr=self.flow.dst_host,
                    sent_tick=tick,
                )
            )

    def _record(self, pkt, tick):
        self.replies.append(
            Reply(
                pkt.kind, pkt.seq, tick, pkt.path_id, pkt.route,
                pkt.src_addr, pkt.dst_addr, pkt.sent_tick, pkt.capability,
            )
        )

    def on_ack(self, engine, flow, pkt, tick):
        self.acks.append((pkt.seq, tick))
        self._record(pkt, tick)

    def on_synack(self, engine, flow, pkt, tick):
        self.synacks.append((pkt.seq, tick))
        self._record(pkt, tick)


def chain_engine(n_hops, capacity=None, buffer=None):
    """host -> r1 -> ... -> rN -> srv chain; bottleneck on the first link."""
    topo = Topology()
    nodes = ["host"] + [f"r{i}" for i in range(1, n_hops + 1)] + ["srv"]
    for a, b in zip(nodes, nodes[1:]):
        topo.add_duplex_link(a, b, capacity=None)
    if capacity is not None:
        topo.add_link("host", "r1", capacity=capacity, buffer=buffer)
    engine = Engine(topo, seed=1)
    flow = engine.open_flow("host", "srv", path_id=(1,))
    return engine, flow


class TestTiming:
    def test_one_hop_per_tick_round_trip(self):
        # 3 forward links + 3 reverse links -> ACK arrives at tick 6
        engine, flow = chain_engine(2)
        src = OneShotSource(flow)
        engine.add_source(src)
        engine.run(10)
        assert src.acks == [(0, 6)]

    def test_syn_gets_synack(self):
        engine, flow = chain_engine(2)
        src = OneShotSource(flow, kind=SYN)
        engine.add_source(src)
        engine.run(10)
        assert src.synacks == [(0, 6)]

    def test_longer_chain_longer_rtt(self):
        engine, flow = chain_engine(5)
        src = OneShotSource(flow)
        engine.add_source(src)
        engine.run(20)
        assert src.acks == [(0, 12)]


class TestReplyFields:
    """An ACK or SYN-ACK takes its identifier, route and addresses from the
    flow when the destination replies, and echoes what it acknowledges."""

    def test_ack_echoes_the_data_packet(self):
        engine, flow = chain_engine(2)
        src = OneShotSource(flow, count=2)
        engine.add_source(src)
        engine.run(10)
        assert src.replies == [
            Reply(ACK, seq, 6, (1,), flow.reverse_route, "srv", "host", 0,
                  None)
            for seq in (0, 1)
        ]

    def test_ack_carries_the_identifier_the_flow_has_at_delivery(self):
        # path-identifier churn: the DATA packet left under (1,), and the
        # flow moved to (2,) while it was in flight
        engine, flow = chain_engine(2)
        src = OneShotSource(flow)
        engine.add_source(src)
        engine.run(1)
        flow.path_id = (2,)
        engine.run(9)
        [reply] = src.replies
        assert reply.path_id == (2,)
        assert reply.route == flow.reverse_route

    def test_ack_of_a_forged_packet_is_addressed_from_the_flow(self):
        engine, flow = chain_engine(2)
        src = OneShotSource(flow, src_addr="forged")
        engine.add_source(src)
        engine.run(10)
        [reply] = src.replies
        assert (reply.kind, reply.src_addr, reply.dst_addr) == (
            ACK, flow.dst_host, flow.src_host,
        )

    def test_synack_carries_the_capability_floc_stamped_on_the_syn(self):
        engine, flow = chain_engine(2)
        policy = FLocPolicy(FLocConfig())
        engine.topology.set_policy("r1", "r2", policy)
        src = OneShotSource(flow, kind=SYN)
        engine.add_source(src)
        engine.run(10)
        [reply] = src.replies
        capability = policy.issuer.issue(
            flow.src_host, flow.dst_host, flow.path_id
        )
        assert capability is not None
        assert reply == Reply(
            SYNACK, 0, 6, (1,), flow.reverse_route, "srv", "host", 0,
            capability,
        )


class TestCapacityAndBuffer:
    def test_capacity_paces_service(self):
        # 10 packets through a 2 pkt/tick link: last ACK is 5 ticks later
        engine, flow = chain_engine(2, capacity=2.0, buffer=100)
        src = OneShotSource(flow, count=10)
        engine.add_source(src)
        engine.run(20)
        assert len(src.acks) == 10
        first_ack = src.acks[0][1]
        last_ack = src.acks[-1][1]
        assert last_ack - first_ack == 4  # 5 service ticks, 2 per tick

    def test_buffer_overflow_drops(self):
        engine, flow = chain_engine(2, capacity=1.0, buffer=3)
        src = OneShotSource(flow, count=10)
        engine.add_source(src)
        engine.run(30)
        # arrivals are enqueued before service: the 3-packet buffer keeps
        # exactly 3 of the burst of 10
        assert len(src.acks) == 3
        assert engine.topology.link("host", "r1").dropped_total == 7
        # service is paced at 1 pkt/tick, so the three ACKs arrive in
        # consecutive ticks
        ack_ticks = [t for _, t in src.acks]
        assert ack_ticks == [ack_ticks[0], ack_ticks[0] + 1, ack_ticks[0] + 2]

    def test_fractional_capacity_accumulates(self):
        engine, flow = chain_engine(1, capacity=0.5, buffer=100)
        src = OneShotSource(flow, count=4)
        engine.add_source(src)
        engine.run(20)
        assert len(src.acks) == 4
        ticks = [t for _, t in src.acks]
        # service every 2 ticks at rate 0.5
        assert ticks == sorted(ticks)
        assert ticks[-1] - ticks[0] == 6

    def test_unbounded_link_never_drops(self):
        engine, flow = chain_engine(3)
        src = OneShotSource(flow, count=500)
        engine.add_source(src)
        engine.run(12)
        assert len(src.acks) == 500


class TestFlows:
    def test_open_flow_assigns_unique_ids(self, dumbbell):
        engine, _ = dumbbell
        f1 = engine.open_flow("h0", "srv", path_id=(1,))
        f2 = engine.open_flow("h1", "srv", path_id=(2,))
        assert f1.flow_id != f2.flow_id
        assert engine.flows[f1.flow_id] is f1

    def test_open_flow_computes_routes(self, dumbbell):
        engine, _ = dumbbell
        flow = engine.open_flow("h0", "srv", path_id=(1,))
        assert flow.route == ("h0", "r1", "r2", "srv")
        assert flow.reverse_route == ("srv", "r2", "r1", "h0")

    def test_explicit_route_validated(self, dumbbell):
        engine, _ = dumbbell
        from repro.errors import TopologyError

        with pytest.raises(TopologyError):
            engine.open_flow("h0", "srv", path_id=(1,), route=["h0", "srv"])

    def test_spawn_rng_deterministic_per_name(self, dumbbell):
        engine, _ = dumbbell
        a = engine.spawn_rng("x").random()
        b = Engine(engine.topology, seed=42).spawn_rng("x").random()
        c = engine.spawn_rng("y").random()
        assert a == b
        assert a != c


class TestMonitor:
    def test_monitor_counts_by_flow(self, dumbbell):
        engine, _ = dumbbell
        flow = engine.open_flow("h0", "srv", path_id=(1,))
        src = OneShotSource(flow, count=5)
        engine.add_source(src)
        monitor = engine.add_monitor("r1", "r2")
        engine.run(10)
        assert monitor.service_counts == {flow.flow_id: 5}
        assert monitor.total_serviced == 5

    def test_monitor_window_excludes_outside(self, dumbbell):
        engine, _ = dumbbell
        flow = engine.open_flow("h0", "srv", path_id=(1,))
        src = OneShotSource(flow, count=5)
        engine.add_source(src)
        monitor = engine.add_monitor("r1", "r2", LinkMonitor(start_tick=100))
        engine.run(10)
        assert monitor.total_serviced == 0

    def test_determinism_same_seed(self):
        def run(seed):
            engine, flow = chain_engine(2, capacity=1.0, buffer=2)
            src = OneShotSource(flow, count=10)
            engine.add_source(src)
            engine.run(30)
            return [t for _, t in src.acks]

        assert run(7) == run(7)
