"""TcpSource sleeps between events (``next_wake``): a sleeping source must be
indistinguishable from one polled every tick, and must actually sleep."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.engine import Engine
from repro.net.policy import DropTailPolicy
from repro.net.topology import Topology
from repro.tcp.source import TcpSource
from repro.traffic.scenarios import build_tree_scenario


class PolledTcpSource(TcpSource):
    """The pre-``next_wake`` behaviour: ``on_tick`` runs on every tick."""

    next_wake = property(lambda self: 0, lambda self, value: None)


def dumbbell(source_cls, capacity, buffer, starts, total_packets, seed,
             outage=None):
    """``len(starts)`` hosts behind one bottleneck ``r -> s``; ``outage`` is
    a ``(start, length)`` window in which host 0's access link is down."""
    topo = Topology()
    topo.add_duplex_link("r", "s", capacity=capacity, buffer=buffer)
    engine = Engine(topo, seed=seed)
    sources = []
    for i, start in enumerate(starts):
        topo.add_duplex_link(f"h{i}", "r")
        flow = engine.open_flow(f"h{i}", "s", path_id=(i + 1,))
        source = source_cls(flow, total_packets=total_packets, start_tick=start)
        engine.add_source(source)
        sources.append(source)
    if outage is not None:
        down, length = outage

        def flap(eng, tick):
            if tick == down:
                eng.fail_link("h0", "r")
            elif tick == down + length:
                eng.restore_link("h0", "r")

        engine.add_tick_hook(flap)
    monitor = engine.add_monitor("r", "s")
    return engine, sources, monitor


def tcp_state(source):
    return (
        source.packets_sent,
        source.retransmissions,
        source.timeouts,
        source.loss_events,
        source.cwnd,
        source._rto_backoff,
    )


class TestPolledEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        capacity=st.sampled_from([0.4, 1.0, 2.5, 6.0]),
        buffer=st.integers(min_value=1, max_value=30),
        starts=st.lists(
            st.integers(min_value=0, max_value=60), min_size=1, max_size=8
        ),
        total_packets=st.one_of(
            st.none(), st.integers(min_value=1, max_value=120)
        ),
        seed=st.integers(min_value=0, max_value=2**16),
        outage=st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=0, max_value=80),
                st.integers(min_value=1, max_value=200),
            ),
        ),
    )
    # the access link is down through the handshake: SYNs time out and back off
    @example(capacity=2.5, buffer=8, starts=[3, 0, 17], total_packets=None,
             seed=11, outage=(0, 150))
    # a finite file that finishes well inside the run
    @example(capacity=6.0, buffer=20, starts=[0, 5], total_packets=40, seed=5,
             outage=None)
    # a segment re-sent while still outstanding leaves room in the window,
    # so the polled source sends again on the very next tick
    @example(capacity=6.0, buffer=3, starts=[0], total_packets=None, seed=0,
             outage=(0, 22))
    def test_sleeping_source_matches_polled_source_tick_by_tick(
        self, capacity, buffer, starts, total_packets, seed, outage
    ):
        args = (capacity, buffer, starts, total_packets, seed, outage)
        asleep, sleepers, mon_a = dumbbell(TcpSource, *args)
        polled, pollers, mon_p = dumbbell(PolledTcpSource, *args)
        for tick in range(500):
            asleep.run(1)
            polled.run(1)
            assert [tcp_state(s) for s in sleepers] == [
                tcp_state(s) for s in pollers
            ], f"diverged at tick {tick}"
        assert [s.finished for s in sleepers] == [s.finished for s in pollers]
        assert [
            (link.serviced_total, link.dropped_total)
            for link in asleep.topology.links()
        ] == [
            (link.serviced_total, link.dropped_total)
            for link in polled.topology.links()
        ]
        assert mon_a.service_counts == mon_p.service_counts
        assert mon_a.drop_counts == mon_p.drop_counts

    def test_examples_reach_backoff_and_completion(self):
        # the two pinned examples above must exercise what they claim to
        engine, (src, *_), _ = dumbbell(
            TcpSource, 2.5, 8, [3, 0, 17], None, 11, outage=(0, 150)
        )
        engine.run(150)
        assert not src.established and src._syn_retransmits >= 2
        engine.run(350)
        assert src.established
        engine, sources, _ = dumbbell(TcpSource, 6.0, 20, [0, 5], 40, 5)
        engine.run(500)
        assert all(s.finished and s.next_wake > engine.tick for s in sources)


class TestSourcesSleep:
    def test_on_tick_calls_are_bounded_by_events(self):
        ticks = 2000
        scenario = build_tree_scenario(
            scale_factor=0.05, attack_kind="cbr", attack_rate_mbps=4.0, seed=3
        )
        scenario.attach_policy(DropTailPolicy())
        monitor = scenario.add_target_monitor()
        calls = {}

        def counted(source, hook):
            inner = getattr(source, hook)
            tally = calls.setdefault(id(source), dict.fromkeys(
                ("on_tick", "on_ack", "on_synack"), 0
            ))

            def wrapper(*args):
                tally[hook] += 1
                return inner(*args)

            setattr(source, hook, wrapper)

        for source in scenario.legit_sources:
            for hook in ("on_tick", "on_ack", "on_synack"):
                counted(source, hook)
        scenario.engine.run(ticks)

        legit = sum(
            monitor.service_counts.get(flow.flow_id, 0)
            for flow in scenario.legit_flows
        )
        assert legit < 0.10 * monitor.total_serviced  # TCP is starved
        for source in scenario.legit_sources:
            tally = calls[id(source)]
            events = (
                tally["on_ack"]
                + tally["on_synack"]
                + source.timeouts
                + source._syn_retransmits
            )
            # + the first SYN, and the odd tick after a duplicate re-send
            # left room in the window (see TcpSource._next_timer)
            assert tally["on_tick"] <= events + 2, (tally, events)
            assert tally["on_tick"] < ticks / 4
