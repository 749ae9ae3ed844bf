"""Verbatim-oracle equivalence for the packet engine's tick loop.

The engine's five phases, ``CbrSource.on_tick``, ``LinkMonitor``'s two
hooks and ``DropTailPolicy`` were rewritten so that a tick costs one Python
frame per phase and active deciding link instead of several per packet.
The pinned digests of ``test_engine_lock.py`` prove that nothing moved *at
the inputs they were pinned at*; this suite carries the parent's code
(copied verbatim at ``fda06bf``, before any edit) and lets hypothesis draw
the scenario's *shape* as well as its values, comparing the two engines
after every tick: link counters and credit, the ``(flow_id, seq)`` order of
every queue and arrival list, monitor dicts, the recorded sequence of
policy and source calls, and ``getstate()`` of the interleave and policy
RNGs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net.engine import Engine, FlowInfo, LinkMonitor
from repro.net.packet import ACK, DATA, SYN, SYNACK, Packet
from repro.net.policy import DropTailPolicy, LinkPolicy, RandomDropPolicy
from repro.net.topology import Link, Topology
from repro.tcp.source import TcpSource
from repro.telemetry import NULL_TELEMETRY, Telemetry, use
from repro.trace import NULL_TRACER, Tracer, current_tracer, use_tracer
from repro.traffic.adaptive import AdaptiveCbrSource
from repro.traffic.cbr import CbrSource
from repro.traffic.churn import PathChurnFloodSource
from repro.traffic.shrew import ShrewSource


# ----------------------------------------------------------------------
# the oracle: the parent's methods, verbatim
# ----------------------------------------------------------------------
class OracleEngine(Engine):
    """``Engine`` with the tick loop of ``fda06bf``."""

    def _step(self) -> None:
        tick = self.tick
        tel = self.telemetry
        prof = current_tracer().profiler
        clock = prof.start() if prof is not None else 0.0
        if self.topology.revision != self._links_revision:
            self._reresolve_routes()
        # phase 0: arrivals scheduled last tick become this tick's work.
        for link in self._touched_next:
            if link.arrivals_next:
                link.arrivals.extend(link.arrivals_next)
                link.arrivals_next.clear()
        self._active.update(self._touched_next)
        self._touched_next = {}
        self._deliveries, self._deliveries_next = self._deliveries_next, []
        # long-haul (delay > 1) packets arriving now
        for dest, pkt in self._scheduled.pop(tick, ()):
            if dest is None:
                self._deliveries.append(pkt)
            else:
                dest.arrivals.append(pkt)
                self._active[dest] = None
        if prof is not None:
            clock = prof.lap("arrivals", clock)

        if prof is None:
            for hook in self._hooks_per_tick:
                hook(self, tick)
        else:
            # attribute each hook (sanitizer, fault schedule, ...) its own
            # wall-time bucket
            for hook, label in zip(self._hooks_per_tick, self._hook_labels):
                hook(self, tick)
                clock = prof.lap(label, clock)

        # policies tick even when their link is idle (timers, state expiry)
        for link in self._policy_links:
            link.policy.on_tick(tick)
        if prof is not None:
            clock = prof.lap("policy", clock)

        # phase 1: deliveries (end hosts react: sinks ACK, sources absorb).
        for pkt in self._deliveries:
            self._deliver(pkt, tick)
        if prof is not None:
            clock = prof.lap("delivery", clock)

        # phase 2: source emissions (a source that promised to have
        # nothing to do before ``next_wake`` is not polled until then).
        for source in self._sources:
            if source.next_wake <= tick:
                source.on_tick(self, tick)
        if prof is not None:
            clock = prof.lap("sources", clock)

        # phase 3: link processing.
        active = self._active
        self._active = {}
        if prof is None:
            for link in active:
                self._process_link(link, tick)
        else:
            # links with a policy are charged to "admission", the rest to
            # "forwarding": the split the benchmark's core.policy.* and
            # net.engine.* layers draw
            for link in active:
                if link.policy is None:
                    self._process_link(link, tick)
                else:
                    clock = prof.lap("forwarding", clock)
                    self._process_link(link, tick)
                    clock = prof.lap("admission", clock)
            prof.lap("forwarding", clock)
            prof.tick_done()
        if tel.enabled:
            tel.sample_engine(self, tick)

        self.tick = tick + 1

    def _process_link(self, link: Link, tick: int) -> None:
        arrivals = link.arrivals
        link.arrivals = []
        if not link.up:
            # packets handed to a failed link are lost in transit; the
            # policy is not consulted (the router behind it is unreachable)
            for pkt in arrivals:
                self._dead_drop(link, pkt)
            return
        policy = link.policy
        queue = link.queue
        monitors = link.monitors
        buffer = link.buffer
        capacity = link.capacity
        delay = link.delay
        # next-tick buffers: a packet advances at most one hop per tick,
        # regardless of the order links are processed in
        touched = self._touched_next
        deliveries = self._deliveries_next

        if (
            policy is None
            and buffer is None
            and capacity is None
            and delay == 1
            and not monitors
            and not queue
        ):
            # wire link: nothing to admit, bound, pace or observe, so every
            # arrival goes straight to its next hop in arrival order.  All
            # read at call time: a monitor attached or a link failed
            # mid-run leaves this path at once.
            link.serviced_total += len(arrivals)
            for pkt in arrivals:
                hop = pkt.hop + 1
                pkt.hop = hop
                nxt = pkt.links[hop]
                if nxt is None:
                    deliveries.append(pkt)
                else:
                    nxt.arrivals_next.append(pkt)
                    touched[nxt] = None
            return

        if policy is not None:
            # a tick's arrivals come from many upstream sources; real
            # routers see them interleaved, not in source-registration
            # order — without this, the same flows always sit at the
            # tick's tail and absorb every token-exhaustion drop
            if len(arrivals) > 1:
                arrivals = self._interleave(arrivals)
            admitted = policy.batch_admit(arrivals, tick)
            if admitted is None:
                admitted = []
                for pkt in arrivals:
                    # drop notification happens immediately after a failed
                    # admit so policies can attribute the drop's cause
                    if policy.admit(pkt, tick):
                        admitted.append(pkt)
                    else:
                        self._drop(link, pkt, tick)
            elif len(admitted) != len(arrivals):
                kept = set(map(id, admitted))
                for pkt in arrivals:
                    if id(pkt) not in kept:
                        self._drop(link, pkt, tick)
            for pkt in admitted:
                if buffer is not None and len(queue) >= buffer:
                    self._drop(link, pkt, tick)
                else:
                    queue.append(pkt)
        elif buffer is None:
            queue.extend(arrivals)
        else:
            for pkt in arrivals:
                if len(queue) >= buffer:
                    self._drop(link, pkt, tick)
                else:
                    queue.append(pkt)

        # service
        if capacity is None:
            n_service = len(queue)
        else:
            link.credit += capacity
            n_service = int(link.credit)
            if n_service > len(queue):
                n_service = len(queue)
            link.credit -= n_service
            if link.credit > capacity:  # do not bank idle capacity
                link.credit = capacity
        link.serviced_total += n_service
        for _ in range(n_service):
            pkt = queue.popleft()
            for mon in monitors:
                mon.on_service(pkt, tick)
            hop = pkt.hop + 1
            pkt.hop = hop
            nxt = pkt.links[hop]
            if delay != 1:
                self._scheduled.setdefault(tick + delay, []).append((nxt, pkt))
            elif nxt is None:
                deliveries.append(pkt)
            else:
                nxt.arrivals_next.append(pkt)
                touched[nxt] = None
        if queue:
            touched[link] = None

    def _interleave(self, arrivals: List[Packet]) -> List[Packet]:
        """Randomly merge per-flow packet streams, preserving each flow's
        own FIFO order (reordering a flow's packets would fire spurious
        duplicate-ACK retransmissions at its TCP source)."""
        by_flow: Dict[int, List[Packet]] = {}
        for pkt in arrivals:
            by_flow.setdefault(pkt.flow_id, []).append(pkt)
        if len(by_flow) <= 1:
            return arrivals
        streams = list(by_flow.values())
        cursors = [0] * len(streams)
        out: List[Packet] = []
        randrange = self._interleave_rng.randrange
        while streams:
            i = randrange(len(streams)) if len(streams) > 1 else 0
            stream = streams[i]
            out.append(stream[cursors[i]])
            cursors[i] += 1
            if cursors[i] == len(stream):
                last = len(streams) - 1
                streams[i] = streams[last]
                cursors[i] = cursors[last]
                streams.pop()
                cursors.pop()
        return out

    def _drop(self, link: Link, pkt: Packet, tick: int) -> None:
        link.dropped_total += 1
        policy = link.policy
        if policy is not None:
            tel = self.telemetry
            if tel.enabled:
                # peek the cause before on_drop consumes the policy's
                # pending-cause state; a policy that does not attribute
                # its drops falls back to the terminal stage
                cause = policy.pending_drop_cause() or "overflow"
                tel.record_drop(tick, cause, pkt.flow_id, pkt.path_id)
            policy.on_drop(pkt, tick)
        elif self.telemetry.enabled:
            self.telemetry.record_drop(tick, "overflow", pkt.flow_id, pkt.path_id)
        for mon in link.monitors:
            mon.on_drop(pkt, tick)

    def _deliver(self, pkt: Packet, tick: int) -> None:
        self.packets_delivered += 1
        flow = self.flows.get(pkt.flow_id)
        if flow is None:
            raise SimulationError(f"delivery for unknown flow {pkt.flow_id}")
        if pkt.kind == DATA:
            self._reply(flow, pkt, ACK, tick)
        elif pkt.kind == SYN:
            self._reply(flow, pkt, SYNACK, tick)
        elif pkt.kind == ACK:
            if flow.source is not None:
                flow.source.on_ack(self, flow, pkt, tick)
        elif pkt.kind == SYNACK:
            if flow.source is not None:
                flow.source.on_synack(self, flow, pkt, tick)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown packet kind {pkt.kind}")

    def _reply(self, flow: FlowInfo, pkt: Packet, kind: int, tick: int) -> None:
        """Destination host acknowledges a data or SYN packet."""
        # positional on purpose: built once per delivered packet, and
        # keyword passing cost a fifth of a drop-tail flood's run time
        self.emit(
            Packet(
                flow.flow_id,
                kind,
                pkt.seq,
                flow.path_id,
                flow.reverse_route,
                flow.dst_host,
                flow.src_host,
                pkt.sent_tick,
                pkt.capability,
            )
        )


class OracleLinkMonitor(LinkMonitor):
    """``LinkMonitor`` with the hooks of ``fda06bf``."""


    def _in_window(self, tick: int) -> bool:
        if tick < self.start_tick:
            return False
        return self.stop_tick is None or tick < self.stop_tick

    def on_service(self, pkt: Packet, tick: int) -> None:
        """Called by the engine when ``pkt`` is serviced on the link."""
        if not self._in_window(tick):
            return
        self.service_counts.inc(pkt.flow_id)
        if self.record_series:
            self.series.observe(tick)

    def on_drop(self, pkt: Packet, tick: int) -> None:
        """Called by the engine when ``pkt`` is dropped on the link."""
        if not self._in_window(tick):
            return
        self.drop_counts.inc(pkt.flow_id)


class OracleCbrSource(CbrSource):
    """``CbrSource`` with the emission path of ``fda06bf``."""


    def on_tick(self, engine: Engine, tick: int) -> None:
        if tick < self.start_tick:
            return
        if self.stop_tick is not None and tick >= self.stop_tick:
            return
        if not self.established:
            self._handshake(engine, tick)
            return
        self._credit += self.current_rate(tick)
        count = int(self._credit)
        self._credit -= count
        for _ in range(count):
            engine.emit(self._packet(DATA, self._next_seq, tick))
            self._next_seq += 1
            self.packets_sent += 1

    def _handshake(self, engine: Engine, tick: int) -> None:
        if self._syn_sent_tick is not None and tick - self._syn_sent_tick <= 40:
            return
        self._syn_sent_tick = tick
        engine.emit(self._packet(SYN, 0, tick))

    def _packet(self, kind: int, seq: int, tick: int) -> Packet:
        flow = self.flow
        return Packet(
            flow.flow_id,
            kind,
            seq,
            flow.path_id,
            flow.route,
            flow.src_host,
            flow.dst_host,
            tick,
            self.capability,
        )


class OracleDropTailPolicy(LinkPolicy):
    """``DropTailPolicy`` as of ``fda06bf``: per-packet ``admit`` only."""


    def admit(self, pkt: Packet, tick: int) -> bool:
        buffer = self.link.buffer
        return buffer is None or len(self.link.queue) < buffer


@dataclass(frozen=True)
class Side:
    """The classes one side of the comparison is built from."""

    engine: type
    monitor: type
    cbr: type
    droptail: type

    def source(self, cls: type) -> type:
        """``cls`` (a ``CbrSource`` subclass) over this side's ``CbrSource``:
        a subclass's ``super().on_tick`` lands in the oracle's emission
        path, its own per-tick phase and ``current_rate`` untouched."""
        if self.cbr is CbrSource:
            return cls
        if cls is CbrSource:
            return self.cbr
        return type(f"Oracle{cls.__name__}", (cls, self.cbr), {})


NEW = Side(Engine, LinkMonitor, CbrSource, DropTailPolicy)
OLD = Side(OracleEngine, OracleLinkMonitor, OracleCbrSource, OracleDropTailPolicy)


# ----------------------------------------------------------------------
# policies the scenarios draw from
# ----------------------------------------------------------------------
class CoinPolicy(LinkPolicy):
    """Per-packet admission off its own RNG, with a pending drop cause the
    way FLoc's pipeline attributes one: the draw order *is* the admit
    order, and a cause left unconsumed would label the next drop."""

    def __init__(self, p_admit: float) -> None:
        self.p_admit = p_admit
        self._cause: Optional[str] = None

    def attach(self, link: Link, engine: Engine) -> None:
        super().attach(link, engine)
        self._rng = engine.spawn_rng("coin")

    def admit(self, pkt: Packet, tick: int) -> bool:
        if self._rng.random() < self.p_admit:
            return True
        self._cause = "token"
        return False

    def pending_drop_cause(self) -> Optional[str]:
        return self._cause

    def on_drop(self, pkt: Packet, tick: int) -> None:
        self._cause = None


class WholeTickPolicy(LinkPolicy):
    """``batch_admit`` that hands the arrival list itself back."""

    def batch_admit(self, arrivals: List[Packet], tick: int) -> List[Packet]:
        return arrivals


def ids(pkts: Any) -> List[Tuple[int, int, int]]:
    return [(p.flow_id, p.kind, p.seq) for p in pkts]


class Recording(LinkPolicy):
    """Delegates to ``inner`` and records what the engine asked, in order,
    with the queue length each ``on_drop`` could observe."""

    def __init__(self, inner: LinkPolicy) -> None:
        self.inner = inner
        self.log: List[Tuple[Any, ...]] = []

    def attach(self, link: Link, engine: Engine) -> None:
        super().attach(link, engine)
        self.inner.attach(link, engine)

    def on_tick(self, tick: int) -> None:
        self.inner.on_tick(tick)

    def admit(self, pkt: Packet, tick: int) -> bool:
        ok = self.inner.admit(pkt, tick)
        self.log.append(("admit", tick, pkt.flow_id, pkt.seq, ok))
        return ok

    def batch_admit(
        self, arrivals: List[Packet], tick: int
    ) -> Optional[List[Packet]]:
        kept = self.inner.batch_admit(arrivals, tick)
        if kept is not None:
            self.log.append(("batch", tick, ids(arrivals), ids(kept)))
        return kept

    def pending_drop_cause(self) -> Optional[str]:
        return self.inner.pending_drop_cause()

    def on_drop(self, pkt: Packet, tick: int) -> None:
        self.log.append(
            ("drop", tick, pkt.flow_id, pkt.seq, len(self.link.queue))
        )
        self.inner.on_drop(pkt, tick)


POLICIES = ("none", "droptail", "random", "coin", "whole")


def make_policy(name: str, side: Side) -> Optional[Recording]:
    if name == "none":
        return None
    inner: LinkPolicy = {
        "droptail": side.droptail,
        "random": RandomDropPolicy,
        "coin": lambda: CoinPolicy(0.7),
        "whole": WholeTickPolicy,
    }[name]()
    return Recording(inner)


# ----------------------------------------------------------------------
# the drawn scenario
# ----------------------------------------------------------------------
#: a source: (kind, entry node, rate, start tick, stop tick or None,
#: handshake); ``entry`` "h" gives the flow a host of its own behind ``a``
SourceSpec = Tuple[str, str, float, int, Optional[int], bool]
#: a mid-run event: (tick, what, link index into EVENT_LINKS)
EventSpec = Tuple[int, str, int]

EVENT_LINKS = (("c", "d"), ("b", "c"), ("a", "b"), ("d", "c"))


@dataclass(frozen=True)
class Shape:
    """Everything hypothesis draws.

    The topology is the line ``a - b - c - d`` (duplex, every other link
    an unbounded wire); all flows end at ``d``.  ``c -> d`` is the
    deciding link under test, ``b -> c`` a second link that is a wire, a
    paced link or a buffered link with no policy.  A flow entering at
    ``b`` or ``c`` makes its first hop a link other flows transit.
    """

    policy: str
    buffer: Optional[int]
    capacity: Optional[float]
    delay: int
    mid: Tuple[Optional[float], Optional[int]]  # b -> c (capacity, buffer)
    sources: Tuple[SourceSpec, ...]
    events: Tuple[EventSpec, ...]
    monitor_window: Optional[Tuple[int, Optional[int], bool]]
    telemetry: str  # "off" | "trace" | "profile"
    seed: int


@dataclass
class Run:
    engine: Engine
    sources: List[Any]
    monitors: List[LinkMonitor]
    policy: Optional[Recording]
    calls: List[Tuple[Any, ...]]
    telemetry: Optional[Telemetry]


def build(shape: Shape, side: Side) -> Run:
    telemetry = None
    if shape.telemetry != "off":
        telemetry = Telemetry(mode="trace")
    with use(telemetry or NULL_TELEMETRY):  # the engine binds it when built
        return _build(shape, side, telemetry)


def _build(shape: Shape, side: Side, telemetry: Optional[Telemetry]) -> Run:
    topo = Topology()
    for u, v in (("a", "b"), ("b", "c"), ("c", "d")):
        topo.add_duplex_link(u, v)
    mid_capacity, mid_buffer = shape.mid
    if mid_capacity is not None or mid_buffer is not None:
        topo.add_link("b", "c", capacity=mid_capacity, buffer=mid_buffer)
    topo.add_link(
        "c", "d", capacity=shape.capacity, buffer=shape.buffer, delay=shape.delay
    )
    policy = make_policy(shape.policy, side)
    if policy is not None:
        topo.set_policy("c", "d", policy)
    engine = side.engine(topo, seed=shape.seed)
    calls: List[Tuple[Any, ...]] = []
    sources: List[Any] = []
    for i, (kind, entry, rate, start, stop, handshake) in enumerate(shape.sources):
        if entry == "h":
            entry = f"h{i}"
            topo.add_duplex_link(entry, "a")
        flow = engine.open_flow(entry, "d", path_id=(i + 1, 99))
        if kind == "tcp":
            # a finite file: an unbounded transfer over an unpaced line
            # doubles its window every round trip
            source = TcpSource(flow, total_packets=60, start_tick=start)
        elif kind == "cbr":
            source = side.source(CbrSource)(
                flow, rate, start_tick=start, stop_tick=stop, handshake=handshake
            )
        elif kind == "shrew":
            source = side.source(ShrewSource)(
                flow, burst_rate=rate, period_ticks=12, on_ticks=3, phase=i,
                start_tick=start, stop_tick=stop, handshake=handshake,
            )
        elif kind == "churn":
            source = side.source(PathChurnFloodSource)(
                flow, rate, churn_interval=7, id_space=50, rehandshake=i % 2 == 0,
                start_tick=start, stop_tick=stop, handshake=handshake,
            )
        else:
            source = side.source(AdaptiveCbrSource)(
                flow, rate, mutations=("rerandomize", "churn"),
                path_id_pool=[(i + 1, 99), (i + 101, 99)], adapt_interval=20,
                start_tick=start, stop_tick=stop, handshake=handshake,
            )
        # instance-level wrappers, the way the benchmark's traced pass
        # installs its timers: the engine must look the hooks up on the
        # instance, once per delivery, in delivery order
        for hook in ("on_ack", "on_synack"):
            setattr(source, hook, _recorded(calls, hook, getattr(source, hook)))
        engine.add_source(source)
        sources.append(source)
    monitors: List[LinkMonitor] = []
    if shape.monitor_window is not None:
        start, stop, series = shape.monitor_window
        monitors.append(
            engine.add_monitor(
                "c", "d", side.monitor(start, stop, record_series=series)
            )
        )

    def events(eng: Engine, tick: int) -> None:
        for at, what, index in shape.events:
            if at != tick:
                continue
            u, v = EVENT_LINKS[index]
            if what == "fail":
                eng.fail_link(u, v)
            elif what == "restore":
                eng.restore_link(u, v)
            elif what == "shrink":
                # a buffer cut to one below the backlog: the room is -1,
                # which as a slice bound would admit all but the last
                link = eng.topology.link(u, v)
                if link.buffer is not None:
                    link.buffer = max(1, len(link.queue) - 1)
            else:
                monitors.append(
                    eng.add_monitor(u, v, side.monitor(record_series=True))
                )

    engine.add_tick_hook(events)
    return Run(engine, sources, monitors, policy, calls, telemetry)


def _recorded(calls: List[Tuple[Any, ...]], hook: str, fn: Any) -> Any:
    def wrapper(engine: Engine, flow: FlowInfo, pkt: Packet, tick: int) -> None:
        calls.append((hook, tick, flow.flow_id, pkt.seq))
        fn(engine, flow, pkt, tick)

    return wrapper


def source_state(source: Any) -> Tuple[Any, ...]:
    if isinstance(source, TcpSource):
        return (source.packets_sent, source.retransmissions, source.timeouts,
                source.cwnd, source.next_wake)
    return (source.packets_sent, source._next_seq, source._credit,
            source.established, source.capability, source.flow.path_id,
            source.rate)


def snapshot(run: Run) -> Dict[str, Any]:
    engine = run.engine
    policy = run.policy
    inner_rng = getattr(policy.inner, "_rng", None) if policy else None
    return {
        "tick": engine.tick,
        "emitted": engine.packets_emitted,
        "delivered": engine.packets_delivered,
        "links": [
            (link.ends, link.up, link.serviced_total, link.dropped_total,
             link.credit, ids(link.queue), ids(link.arrivals),
             ids(link.arrivals_next))
            for link in engine.topology.links()
        ],
        # the work lists keep link order: dict order, not just membership
        "active": [link.ends for link in engine._active],
        "touched": [link.ends for link in engine._touched_next],
        "deliveries": ids(engine._deliveries_next),
        "scheduled": {
            at: [(dest and dest.ends, ids([pkt])) for dest, pkt in entries]
            for at, entries in engine._scheduled.items()
        },
        "monitors": [
            (list(m.service_counts.items()), list(m.drop_counts.items()),
             list(m.series), m.series.pending_tick, m.series.pending_value)
            for m in run.monitors
        ],
        "sources": [source_state(s) for s in run.sources],
        "calls": run.calls,
        "interleave_rng": engine._interleave_rng.getstate(),
        "policy_rng": inner_rng.getstate() if inner_rng else None,
        "events": (
            [e.to_dict() for e in run.telemetry.trace.events()]
            if run.telemetry is not None else None
        ),
        "drop_causes": (
            run.telemetry.drop_provenance() if run.telemetry is not None else None
        ),
    }


def policy_log(run: Run, shape: Shape) -> Any:
    """What the policy was asked, in order.  Drop-tail answers a whole
    tick through ``batch_admit`` where the parent's answered packet by
    packet, so for it the verdicts (per packet, in arrival order) and the
    drops (order, victims, queue length seen) are compared as two
    streams instead of one interleaved sequence."""
    if run.policy is None:
        return []
    if shape.policy != "droptail":
        return run.policy.log
    verdicts: List[Tuple[Any, ...]] = []
    for entry in run.policy.log:
        if entry[0] == "admit":
            verdicts.append(entry[1:])
        elif entry[0] == "batch":
            _, tick, arrived, kept = entry
            assert kept == arrived or kept == []
            verdicts.extend(
                (tick, flow_id, seq, bool(kept)) for flow_id, _, seq in arrived
            )
    return verdicts, [entry for entry in run.policy.log if entry[0] == "drop"]


def assert_equivalent(shape: Shape, ticks: int) -> Tuple[Run, Run]:
    new, old = build(shape, NEW), build(shape, OLD)
    # both engines profile into one tracer; it opens no span, so it
    # writes no file
    profiled = shape.telemetry == "profile"
    with use_tracer(Tracer("unused") if profiled else NULL_TRACER):
        for tick in range(ticks):
            new.engine.run(1)
            old.engine.run(1)
            got, want = snapshot(new), snapshot(old)
            for key in want:
                assert got[key] == want[key], f"{key} diverged at tick {tick}"
            assert policy_log(new, shape) == policy_log(old, shape), (
                f"policy calls diverged at tick {tick}"
            )
    return new, old


rates = st.sampled_from([0.3, 1.0, 2.5, 4.0, 9.0])
source_specs = st.tuples(
    st.sampled_from(["cbr", "cbr", "tcp", "shrew", "churn", "adaptive"]),
    st.sampled_from(["h", "h", "a", "b", "c"]),
    rates,
    st.integers(min_value=0, max_value=30),
    st.one_of(st.none(), st.integers(min_value=20, max_value=90)),
    st.booleans(),
)
event_specs = st.tuples(
    st.integers(min_value=1, max_value=110),
    st.sampled_from(["fail", "restore", "monitor", "shrink"]),
    st.integers(min_value=0, max_value=len(EVENT_LINKS) - 1),
)
shapes = st.builds(
    Shape,
    policy=st.sampled_from(POLICIES),
    buffer=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    capacity=st.one_of(st.none(), st.sampled_from([0.4, 1.0, 2.5, 6.0])),
    delay=st.sampled_from([1, 1, 2, 4]),
    mid=st.sampled_from(
        [(None, None), (None, None), (3.0, None), (2.0, 6), (None, 4)]
    ),
    sources=st.lists(source_specs, min_size=1, max_size=9).map(tuple),
    events=st.lists(event_specs, max_size=5).map(tuple),
    monitor_window=st.one_of(
        st.none(),
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.one_of(st.none(), st.integers(min_value=41, max_value=100)),
            st.booleans(),
        ),
    ),
    telemetry=st.sampled_from(["off", "off", "trace", "profile"]),
    seed=st.integers(min_value=0, max_value=2**16),
)


def flood(n: int, rate: float, entry: str = "h") -> Tuple[SourceSpec, ...]:
    return tuple(("cbr", entry, rate, 0, None, False) for _ in range(n))


def shape(**overrides: Any) -> Shape:
    base = dict(
        policy="droptail", buffer=6, capacity=1.0, delay=1, mid=(None, None),
        sources=flood(3, 1.0), events=(), monitor_window=(0, None, True),
        telemetry="off", seed=7,
    )
    base.update(overrides)
    return Shape(**base)


class TestTickLoopEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(shape=shapes)
    # the degenerate shapes, pinned so they run on every seed of the suite:
    # a policy link with no buffer bound
    @example(shape=shape(buffer=None, capacity=2.5))
    @example(shape=shape(policy="random", buffer=None, capacity=None))
    # no pacing under a policy: the queue empties every tick
    @example(shape=shape(capacity=None, buffer=3, sources=flood(2, 4.0)))
    # a long-haul deciding link
    @example(shape=shape(delay=4, capacity=2.5, sources=flood(4, 1.0)))
    # the sources stop and the backlog drains: an active policy link with
    # no arrivals, tick after tick
    @example(shape=shape(
        buffer=12, capacity=0.4,
        sources=tuple(("cbr", "h", 4.0, 0, 25, False) for _ in range(2)),
    ))
    # batch_admit keeping a strict subset, under telemetry
    @example(shape=shape(policy="random", buffer=4, capacity=1.0,
                         sources=flood(5, 1.0), telemetry="trace"))
    # per-packet admission with causes, profiled
    @example(shape=shape(policy="coin", buffer=5, capacity=2.5,
                         sources=flood(6, 1.0), telemetry="profile"))
    # batch_admit returning the arrival list itself into a bounded queue
    @example(shape=shape(policy="whole", buffer=3, capacity=1.0))
    # a buffered link with no policy, and one upstream of the policy link
    @example(shape=shape(policy="none", buffer=4, capacity=1.0))
    @example(shape=shape(mid=(2.0, 6), sources=flood(4, 1.0, entry="a")))
    # one flow with many packets; many flows with one
    @example(shape=shape(sources=flood(1, 9.0), buffer=12, capacity=6.0))
    @example(shape=shape(sources=flood(9, 1.0), buffer=12, capacity=6.0))
    # the deciding link fails with arrivals pending and comes back
    @example(shape=shape(
        sources=flood(3, 2.5),
        events=((20, "fail", 0), (26, "restore", 0), (40, "fail", 1),
                (41, "restore", 1)),
    ))
    # the buffer shrinks under a standing backlog: the room goes negative
    @example(shape=shape(buffer=12, capacity=0.4, sources=flood(3, 1.0),
                         events=((30, "shrink", 0),)))
    @example(shape=shape(policy="none", buffer=12, capacity=0.4,
                         sources=flood(3, 1.0), events=((30, "shrink", 0),)))
    # a monitor attached mid-run to a wire link, which leaves the wire path
    @example(shape=shape(events=((15, "monitor", 2), (30, "monitor", 3))))
    # first hops that are other flows' transit links (mesh)
    @example(shape=shape(sources=(
        ("cbr", "a", 1.0, 0, None, True), ("cbr", "b", 2.5, 3, None, False),
        ("tcp", "c", 1.0, 0, None, True), ("churn", "h", 1.0, 5, None, True),
        ("adaptive", "b", 4.0, 0, None, True), ("shrew", "a", 4.0, 2, 80, True),
    ), buffer=8, capacity=2.5))
    def test_new_engine_matches_the_parent_tick_by_tick(self, shape):
        assert_equivalent(shape, ticks=120)

    @pytest.mark.parametrize("free", [0, 1])
    def test_queue_full_and_one_short_of_full_at_tick_start(self, free):
        # room 0: drop-tail refuses the whole tick; room 1: it admits the
        # whole tick and the enqueue stage tail-drops all but one
        spec = shape(buffer=6, capacity=1.0, sources=flood(3, 1.0))
        new, old = assert_equivalent(spec, ticks=10 - free)
        link = new.engine.topology.link("c", "d")
        for run in (new, old):
            target = run.engine.topology.link("c", "d")
            target.queue.extend(
                Packet(0, DATA, 1000 + k, (1, 99), ("c", "d"), "c", "d", 0)
                for k in range(target.buffer - free - len(target.queue))
            )
            for pkt in target.queue:
                if not pkt.links:
                    pkt.links = (target, None)
        assert link.buffer - len(link.queue) == free
        before = link.dropped_total
        for run in (new, old):
            run.engine.run(1)
        assert snapshot(new) == snapshot(old)
        assert policy_log(new, spec) == policy_log(old, spec)
        assert link.dropped_total - before == 3 - free

    def test_unknown_flow_at_delivery_still_raises(self):
        run = build(shape(), NEW)
        run.engine.run(5)
        del run.engine.flows[0]
        with pytest.raises(SimulationError, match="unknown flow"):
            run.engine.run(10)
