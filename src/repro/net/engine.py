"""The discrete-time simulation engine.

Timing model (paper Section VII-B): packets advance one router hop per
tick.  A tick proceeds in phases:

1. packets serviced on the previous tick arrive at their next node; packets
   whose route is complete are *delivered* (data/SYN to the destination
   host, which replies with ACK/SYN-ACK; ACK/SYN-ACK to the source's
   traffic generator),
2. traffic sources emit new packets into their access links,
3. every active link runs its admission policy over this tick's arrivals,
   enqueues survivors (FIFO, bounded buffer), and services up to
   ``capacity`` packets, which will arrive at the next hop on tick + 1.

Reproducibility: the engine owns a master seed; every stochastic component
derives its own :class:`random.Random` via :meth:`Engine.spawn_rng`, so
simulations are deterministic given (scenario, seed).
"""

from __future__ import annotations

import hashlib
import random
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import SimulationError
from ..telemetry import LabeledCounter, NullTelemetry, TickSeries, current
from ..units import DEFAULT_SCALE, UnitScale
from .packet import ACK, DATA, SYN, SYNACK, Packet
from .topology import Link, Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .source import TrafficSource


class FlowInfo:
    """Engine-side record of one flow (a source/destination/path triple)."""

    __slots__ = (
        "flow_id",
        "src_host",
        "dst_host",
        "route",
        "reverse_route",
        "path_id",
        "is_attack",
        "source",
    )

    def __init__(
        self,
        flow_id: int,
        src_host: Hashable,
        dst_host: Hashable,
        route: Tuple[Hashable, ...],
        reverse_route: Tuple[Hashable, ...],
        path_id: Tuple[int, ...],
        is_attack: bool,
        source: Optional["TrafficSource"] = None,
    ) -> None:
        self.flow_id = flow_id
        self.src_host = src_host
        self.dst_host = dst_host
        self.route = route
        self.reverse_route = reverse_route
        self.path_id = path_id
        self.is_attack = is_attack
        self.source = source

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "attack" if self.is_attack else "legit"
        return f"FlowInfo({self.flow_id}, {self.src_host}->{self.dst_host}, {tag})"


class LinkMonitor:
    """Records per-flow service and drop counts on one link.

    ``service_counts[flow_id]`` and ``drop_counts[flow_id]`` accumulate only
    while ``start_tick <= tick < stop_tick`` (both optional), which is how
    the paper measures bandwidth "in a 20 to 80 second interval"
    (Section VI-B).  ``per_tick_service`` optionally keeps a full time
    series for figure-style output.

    The containers are :mod:`repro.telemetry` primitives —
    :class:`~repro.telemetry.LabeledCounter` (a ``dict`` subclass) and
    :class:`~repro.telemetry.TickSeries` (a ``list`` subclass) — so the
    monitor doubles as a registry adapter while keeping the historical
    dict/list public API, equality, and flush semantics bit-identical.
    """

    def __init__(
        self,
        start_tick: int = 0,
        stop_tick: Optional[int] = None,
        record_series: bool = False,
    ) -> None:
        self.start_tick = start_tick
        self.stop_tick = stop_tick
        self.record_series = record_series
        self.service_counts: LabeledCounter = LabeledCounter()
        self.drop_counts: LabeledCounter = LabeledCounter()
        self.series: TickSeries = TickSeries()  # (tick, serviced-count)

    def _in_window(self, tick: int) -> bool:
        if tick < self.start_tick:
            return False
        return self.stop_tick is None or tick < self.stop_tick

    # on_service/on_drop run once per serviced or dropped packet on a
    # monitored link, so they test the window and count in place;
    # _in_window stays for subclasses that bin by it.
    def on_service(self, pkt: Packet, tick: int) -> None:
        """Called by the engine when ``pkt`` is serviced on the link."""
        if tick < self.start_tick:
            return
        stop = self.stop_tick
        if stop is not None and tick >= stop:
            return
        counts = self.service_counts
        flow_id = pkt.flow_id
        counts[flow_id] = counts.get(flow_id, 0) + 1
        if self.record_series:
            self.series.observe(tick)

    def on_drop(self, pkt: Packet, tick: int) -> None:
        """Called by the engine when ``pkt`` is dropped on the link."""
        if tick < self.start_tick:
            return
        stop = self.stop_tick
        if stop is not None and tick >= stop:
            return
        counts = self.drop_counts
        flow_id = pkt.flow_id
        counts[flow_id] = counts.get(flow_id, 0) + 1

    def flush(self) -> None:
        """Finalise the in-progress series point.

        ``on_service`` only appends a ``(tick, count)`` pair once a *later*
        serviced tick arrives, so without this the last measurement tick of
        a run would be silently lost.  The engine calls it whenever a
        :meth:`Engine.run` segment completes; it is idempotent, and safe
        across segmented runs because ticks are monotonic.
        """
        self.series.flush()

    @property
    def total_serviced(self) -> int:
        """Total packets serviced in the measurement window."""
        return sum(self.service_counts.values())

    @property
    def total_dropped(self) -> int:
        """Total packets dropped in the measurement window."""
        return sum(self.drop_counts.values())


class Engine:
    """Drives a :class:`~repro.net.topology.Topology` tick by tick."""

    def __init__(
        self,
        topology: Topology,
        scale: UnitScale = DEFAULT_SCALE,
        seed: int = 0,
    ) -> None:
        self.topology = topology
        self.scale = scale
        self.seed = seed
        self.tick = 0
        self.flows: Dict[int, FlowInfo] = {}
        self._sources: List["TrafficSource"] = []
        self._next_flow_id = 0
        # insertion-ordered (dict-as-set) so link processing order — and
        # therefore FIFO interleaving and drop victims — is deterministic
        # given (scenario, seed), independent of object hashes
        self._active: Dict[Link, None] = {}
        self._touched_next: Dict[Link, None] = {}
        self._deliveries: List[Packet] = []
        self._deliveries_next: List[Packet] = []
        # packets in flight on links with delay > 1 tick:
        # arrival tick -> [(next_link_or_None, packet), ...]
        self._scheduled: Dict[int, List[Tuple[Optional[Link], Packet]]] = {}
        # route -> its links, None-terminated (see Packet.links): filled
        # lazily by emit(), dropped (with the stamps of the packets in
        # flight) when the topology's link set changes.  Keyed by the route
        # itself, so rerouting a flow needs no hook.
        self._route_links: Dict[
            Sequence[Hashable], Tuple[Optional[Link], ...]
        ] = {}
        self._links_revision = topology.revision
        self._started = False
        self._hooks_per_tick: List[Callable[["Engine", int], None]] = []
        self._hook_labels: List[str] = []
        # observation only: the current telemetry facade (NULL_TELEMETRY
        # unless the engine is built inside a repro.telemetry.use block)
        self.telemetry: NullTelemetry = current()
        # conservation ledger (see repro.sanitize): every packet handed to
        # emit() must eventually be delivered or counted in some link's
        # dropped_total, with the difference in flight
        self.packets_emitted = 0
        self.packets_delivered = 0

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def spawn_rng(self, name: str) -> random.Random:
        """Derive a deterministic, independent RNG from the master seed."""
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def open_flow(
        self,
        src_host: Hashable,
        dst_host: Hashable,
        path_id: Tuple[int, ...],
        route: Optional[Sequence[Hashable]] = None,
        reverse_route: Optional[Sequence[Hashable]] = None,
        is_attack: bool = False,
    ) -> FlowInfo:
        """Register a flow and return its :class:`FlowInfo`.

        ``path_id`` is the FLoc domain-path identifier, origin AS first.
        Routes default to the topology's shortest paths.
        """
        if route is None:
            route = self.topology.shortest_route(src_host, dst_host)
        else:
            route = list(route)
            if len(route) < 2:
                raise SimulationError(
                    f"flow {src_host!r} -> {dst_host!r} needs a route of at "
                    f"least two nodes, got {route!r}"
                )
            self.topology.validate_route(route)
        if len(route) < 2:
            raise SimulationError(
                f"flow {src_host!r} -> {dst_host!r} has a degenerate "
                f"single-node route; source and destination must differ"
            )
        if reverse_route is None:
            reverse_route = self.topology.shortest_route(dst_host, src_host)
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        info = FlowInfo(
            flow_id,
            src_host,
            dst_host,
            tuple(route),
            tuple(reverse_route),
            tuple(path_id),
            is_attack,
        )
        self.flows[flow_id] = info
        return info

    def add_source(self, source: "TrafficSource") -> None:
        """Register a traffic source; it owns one or more flows."""
        if self._started:
            raise SimulationError(
                "add_source after the simulation started; register every "
                "source before the first Engine.run call"
            )
        self._sources.append(source)
        for flow in source.flows():
            flow.source = source

    def add_monitor(
        self,
        src: Hashable,
        dst: Hashable,
        monitor: Optional[LinkMonitor] = None,
    ) -> LinkMonitor:
        """Attach a :class:`LinkMonitor` to the ``src -> dst`` link."""
        if monitor is None:
            monitor = LinkMonitor()
        self.topology.link(src, dst).monitors.append(monitor)
        return monitor

    def add_tick_hook(self, hook: Callable[["Engine", int], None]) -> None:
        """Run ``hook(engine, tick)`` at the start of every tick."""
        self._hooks_per_tick.append(hook)
        label = (
            getattr(hook, "telemetry_label", None)
            or getattr(hook, "__name__", None)
            or type(hook).__name__
        )
        self._hook_labels.append(str(label))

    # ------------------------------------------------------------------
    # packet movement
    # ------------------------------------------------------------------
    def emit(self, pkt: Packet) -> None:
        """Inject ``pkt`` at the first link of its route (current tick).

        The route is resolved to its links here, once per distinct route,
        and the packet follows those ``Link`` objects to its destination:
        a route naming a hop the topology lacks raises
        :class:`~repro.errors.TopologyError` now, not mid-flight.
        """
        self.packets_emitted += 1
        try:
            links = self._route_links[pkt.route]
        except (KeyError, TypeError):  # TypeError: hand-built list route
            links = self._resolve_route(pkt.route)
        pkt.links = links
        link = links[pkt.hop]
        if link is None:
            raise SimulationError(f"{pkt!r} emitted at the end of its route")
        if not link.up:
            self._dead_drop(link, pkt)
            return
        link.arrivals.append(pkt)
        self._active[link] = None

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        # packets pickle without their links: re-stamp them on the next tick
        self._links_revision = -1

    def _reresolve_routes(self) -> None:
        """Forget every resolved route and re-stamp the packets in flight:
        a link was replaced (a stale resolution would cross the old object)
        or this engine was just unpickled."""
        self._links_revision = self.topology.revision
        self._route_links.clear()
        for _, pkts in self.packets_in_transit():
            for pkt in pkts:
                pkt.links = self._resolve_route(pkt.route)

    def _resolve_route(
        self, route: Sequence[Hashable]
    ) -> Tuple[Optional[Link], ...]:
        key = tuple(route)
        links = self._route_links.get(key)
        if links is None:
            link = self.topology.link
            links = (*(link(u, v) for u, v in zip(key, key[1:])), None)
            self._route_links[key] = links
        return links

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, ticks: int) -> None:
        """Advance the simulation by ``ticks`` ticks."""
        if ticks < 0:
            raise SimulationError(
                f"cannot run a negative number of ticks, got {ticks}"
            )
        if not self._started:
            self._start()
        for _ in range(ticks):
            self._step()
        for link in self.topology.links():
            for mon in link.monitors:
                mon.flush()
        if self.telemetry.enabled:
            self.telemetry.scrape_engine(self)

    def run_seconds(self, seconds: float) -> None:
        """Advance the simulation by a wall-clock duration in sim time."""
        self.run(self.scale.seconds_to_ticks(seconds))

    def _start(self) -> None:
        self._started = True
        self._interleave_rng = self.spawn_rng("arrival-interleave")
        self._policy_links = []
        for link in self.topology.links():
            if link.policy is not None:
                link.policy.attach(link, self)
                self._policy_links.append(link)

    def _step(self) -> None:
        tick = self.tick
        tel = self.telemetry
        prof = tel.profiler if tel.profile_enabled else None
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
        deliveries = self._deliveries
        if deliveries:
            self.packets_delivered += len(deliveries)
            flows = self.flows
            emit = self.emit
            for pkt in deliveries:
                flow = flows.get(pkt.flow_id)
                if flow is None:
                    raise SimulationError(
                        f"delivery for unknown flow {pkt.flow_id}"
                    )
                kind = pkt.kind
                if kind == DATA or kind == SYN:
                    # the destination host acknowledges.  Positional on
                    # purpose: built once per delivered packet, and keyword
                    # passing cost a fifth of a drop-tail flood's run time
                    emit(
                        Packet(
                            flow.flow_id,
                            ACK if kind == DATA else SYNACK,
                            pkt.seq,
                            flow.path_id,
                            flow.reverse_route,
                            flow.dst_host,
                            flow.src_host,
                            pkt.sent_tick,
                            pkt.capability,
                        )
                    )
                elif kind == ACK:
                    # looked up on the instance, per delivery: observers
                    # wrap a source's hooks by assignment
                    if flow.source is not None:
                        flow.source.on_ack(self, flow, pkt, tick)
                elif kind == SYNACK:
                    if flow.source is not None:
                        flow.source.on_synack(self, flow, pkt, tick)
                else:  # pragma: no cover - defensive
                    raise SimulationError(f"unknown packet kind {kind}")
        if prof is not None:
            clock = prof.lap("delivery", clock)

        # phase 2: source emissions (a source that promised to have
        # nothing to do before ``next_wake`` is not polled until then).
        for source in self._sources:
            if source.next_wake <= tick:
                source.on_tick(self, tick)
        if prof is not None:
            clock = prof.lap("sources", clock)

        # phase 3: link processing.  Next-tick buffers: a packet advances
        # at most one hop per tick, regardless of the order links are
        # processed in.
        active = self._active
        self._active = {}
        touched = self._touched_next
        delivered = self._deliveries_next
        for link in active:
            if (
                link.policy is None
                and link.buffer is None
                and link.capacity is None
                and link.delay == 1
                and not link.monitors
                and not link.queue
                and link.up
            ):
                # wire link: nothing to admit, bound, pace or observe, so
                # every arrival goes straight to its next hop in arrival
                # order.  All read here, every tick: a monitor attached or
                # a link failed mid-run leaves this path at once.
                arrivals = link.arrivals
                link.arrivals = []
                link.serviced_total += len(arrivals)
                for pkt in arrivals:
                    hop = pkt.hop + 1
                    pkt.hop = hop
                    nxt = pkt.links[hop]
                    if nxt is None:
                        delivered.append(pkt)
                    else:
                        nxt.arrivals_next.append(pkt)
                        touched[nxt] = None
            elif prof is None or link.policy is None:
                self._process_link(link, tick)
            else:
                # links with a policy are charged to "admission", the
                # rest to "forwarding": the split the benchmark's
                # core.policy.* and net.engine.* layers draw
                clock = prof.lap("forwarding", clock)
                self._process_link(link, tick)
                clock = prof.lap("admission", clock)
        if prof is not None:
            prof.lap("forwarding", clock)
            prof.tick_done()
        if tel.enabled:
            tel.sample_engine(self, tick)

        self.tick = tick + 1

    def _process_link(self, link: Link, tick: int) -> None:
        """One tick of a link that decides something: admission, a bounded
        buffer, paced service, a propagation delay, observers, a backlog,
        or being down."""
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
        if policy is None:
            admitted = arrivals
        else:
            # a tick's arrivals come from many upstream sources; real
            # routers see them interleaved, not in source-registration
            # order — without this, the same flows always sit at the
            # tick's tail and absorb every token-exhaustion drop
            if len(arrivals) > 1:
                arrivals = self._interleave(arrivals)
            kept = policy.batch_admit(arrivals, tick)
            if kept is None:
                admitted = []
                for pkt in arrivals:
                    # drop notification happens immediately after a failed
                    # admit so policies can attribute the drop's cause
                    if policy.admit(pkt, tick):
                        admitted.append(pkt)
                    else:
                        self._drop(link, (pkt,), tick)
            else:
                admitted = kept
                if len(kept) != len(arrivals):
                    held = set(map(id, kept))
                    self._drop(
                        link,
                        [pkt for pkt in arrivals if id(pkt) not in held],
                        tick,
                    )
        # enqueue: the queue only grows here, so the free room is known
        # up front and the overflow is the tail, in arrival order (a
        # policy's on_drop must not touch link.queue)
        buffer = link.buffer
        if buffer is None:
            queue.extend(admitted)
        else:
            room = max(0, buffer - len(queue))
            queue.extend(admitted[:room])
            if room < len(admitted):
                self._drop(link, admitted[room:], tick)

        # service
        capacity = link.capacity
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
        touched = self._touched_next
        if n_service:
            link.serviced_total += n_service
            monitors = link.monitors
            delay = link.delay
            delivered = self._deliveries_next
            popleft = queue.popleft
            for _ in range(n_service):
                pkt = popleft()
                for mon in monitors:
                    mon.on_service(pkt, tick)
                hop = pkt.hop + 1
                pkt.hop = hop
                nxt = pkt.links[hop]
                if delay != 1:
                    self._scheduled.setdefault(tick + delay, []).append(
                        (nxt, pkt)
                    )
                elif nxt is None:
                    delivered.append(pkt)
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
        n = len(by_flow)
        if n <= 1:
            return arrivals
        streams = list(by_flow.values())
        for stream in streams:
            stream.reverse()  # popped from the end, oldest first
        out: List[Packet] = []
        append = out.append
        # The draw is the standard library's uniform integer below n
        # (Random._randbelow_with_getrandbits) written out: same values,
        # same generator state, two Python frames fewer per packet.  Every
        # drop victim downstream depends on these draws, so
        # tests/net/test_engine_draws.py holds the two equal on every
        # CPython of the CI matrix: an interpreter that changes _randbelow
        # fails there, by name, before the digest pins do.
        getrandbits = self._interleave_rng.getrandbits
        bits = n.bit_length()
        while n > 1:
            i = getrandbits(bits)
            while i >= n:
                i = getrandbits(bits)
            stream = streams[i]
            append(stream.pop())
            if not stream:
                n -= 1
                streams[i] = streams[n]
                streams.pop()
                bits = n.bit_length()
        # the last stream standing is drained without a draw
        stream = streams[0]
        stream.reverse()
        out.extend(stream)
        return out

    def _drop(self, link: Link, pkts: Sequence[Packet], tick: int) -> None:
        """Drop ``pkts`` on ``link``, in order: count, attribute, notify
        the policy, then the monitors, packet by packet."""
        policy = link.policy
        tel = self.telemetry
        traced = tel.enabled
        monitors = link.monitors
        for pkt in pkts:
            link.dropped_total += 1
            if policy is not None:
                if traced:
                    # peek the cause before on_drop consumes the policy's
                    # pending-cause state; a policy that does not attribute
                    # its drops falls back to the terminal stage
                    cause = policy.pending_drop_cause() or "overflow"
                    tel.record_drop(tick, cause, pkt.flow_id, pkt.path_id)
                policy.on_drop(pkt, tick)
            elif traced:
                tel.record_drop(tick, "overflow", pkt.flow_id, pkt.path_id)
            for mon in monitors:
                mon.on_drop(pkt, tick)

    def _dead_drop(self, link: Link, pkt: Packet) -> None:
        """Loss on a failed link: counted and monitored, but not reported
        to the admission policy (the drop is not a congestion signal)."""
        link.dropped_total += 1
        if self.telemetry.enabled:
            self.telemetry.record_drop(
                self.tick, "dead_link", pkt.flow_id, pkt.path_id
            )
        for mon in link.monitors:
            mon.on_drop(pkt, self.tick)

    # ------------------------------------------------------------------
    # accounting (used by repro.sanitize)
    # ------------------------------------------------------------------
    def in_flight_count(self) -> int:
        """Packets currently inside the network: queued or arriving on any
        link, scheduled on a long-haul hop, or awaiting delivery."""
        count = len(self._deliveries) + len(self._deliveries_next)
        for link in self.topology.links():
            count += len(link.queue) + len(link.arrivals) + len(link.arrivals_next)
        for pkts in self._scheduled.values():
            count += len(pkts)
        return count

    def packets_in_transit(self) -> Iterator[Tuple[Link, Iterable[Packet]]]:
        """``(link, packets about to cross it)`` for every packet that has
        not finished its route.

        Reached through the engine's work lists rather than
        ``topology.links()``, so packets left on a link the topology no
        longer holds are included.
        """
        for link in (*self._active, *self._touched_next):
            yield link, chain(link.queue, link.arrivals, link.arrivals_next)
        for arrivals in self._scheduled.values():  # long-haul hops
            for dest, pkt in arrivals:
                if dest is not None:
                    yield dest, (pkt,)

    def total_link_drops(self) -> int:
        """Packets dropped on any link since the simulation started."""
        return sum(link.dropped_total for link in self.topology.links())

    # ------------------------------------------------------------------
    # fault support (used by repro.faults injectors)
    # ------------------------------------------------------------------
    def fail_link(self, src: Hashable, dst: Hashable) -> Link:
        """Take the ``src -> dst`` link down, losing its queued packets.

        Packets already handed to the link (queue and pending arrivals)
        are lost; packets arriving while the link is down are lost on
        arrival.  Routing ignores down links, so flows rerouted afterwards
        steer around the failure.
        """
        link = self.topology.link(src, dst)
        link.up = False
        for pkt in list(link.queue) + link.arrivals + link.arrivals_next:
            self._dead_drop(link, pkt)
        link.queue.clear()
        link.arrivals.clear()
        link.arrivals_next.clear()
        return link

    def restore_link(self, src: Hashable, dst: Hashable) -> Link:
        """Bring a failed link back up, with an empty queue and no banked
        service credit."""
        link = self.topology.link(src, dst)
        link.up = True
        link.credit = 0.0
        return link

    def reroute_flow(
        self,
        flow: FlowInfo,
        route: Optional[Sequence[Hashable]] = None,
        reverse_route: Optional[Sequence[Hashable]] = None,
    ) -> None:
        """Re-path a flow mid-run (defaults to current shortest routes).

        Packets already in flight keep the old route; only subsequent
        emissions follow the new one.  The flow keeps its ``path_id`` — the
        identifier was stamped at the origin and FLoc's per-path state
        survives intra-domain rerouting (paper Section III-A).
        """
        if route is None:
            route = self.topology.shortest_route(flow.src_host, flow.dst_host)
        else:
            self.topology.validate_route(list(route))
        if reverse_route is None:
            reverse_route = self.topology.shortest_route(
                flow.dst_host, flow.src_host
            )
        else:
            self.topology.validate_route(list(reverse_route))
        flow.route = tuple(route)
        flow.reverse_route = tuple(reverse_route)
