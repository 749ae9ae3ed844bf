"""The FLoc router subsystem as a link admission policy.

:class:`FLocPolicy` plugs into the simulation engine at the flooded link
and implements the full paper pipeline:

1. **capabilities** — SYNs passing the router get a two-part capability
   stamped; data packets are verified before anything else (spoofed
   traffic is dropped and counted, and costs no state) and mapped to
   their *accounting unit* (source x fanout-bucket x path), the
   covert-attack countermeasure of Section IV-B.3;
2. **per-path state** — active-flow counts, request rate ``lambda_Si``
   (EWMA), and path RTTs measured from the SYN -> first-data interval and
   deliberately scaled down (Section V-A);
3. **token buckets** — one per path-identifier group, parameterised from
   the analytic model (Eqs. IV.1-IV.3) at every measurement interval;
4. **queue modes** — uncongested / congested / flooding admission exactly
   as Section V-A specifies, including early bucket activation for
   over-subscribing paths and the random-threshold neutral drop;
5. **MTD-based identification** — drops feed per-unit MTD estimates
   (exact tracker or the scalable Bloom filter); attack flows are
   preferentially dropped per Eq. (IV.5), extreme flows blocked
   (Section V-B.3);
6. **conformance and aggregation** — Eq. (IV.6) conformance drives
   attack-path aggregation (Algorithm 1) and legitimate-path aggregation
   (Eq. IV.8) at every aggregation interval.
"""

from __future__ import annotations

import copy
import random
from bisect import bisect_right
from collections import OrderedDict
from hmac import compare_digest
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

from ..errors import SimulationError
from ..net.packet import DATA, SYN, Packet
from ..net.policy import LinkPolicy
from ..sketch import BoundedPathState, SketchIndex
from ..tcp import model
from .aggregation import AggregationPlan, build_plan, plan_moves
from .capability import CapabilityIssuer
from .config import FLocConfig
from .conformance import ConformanceTracker
from .dropfilter import DropRecordFilter
from .mtd import INFINITE_MTD, FlowDropTracker, MtdClassifier
from .pathid import PathId
from .queue_manager import QueueManager, QueueMode
from .tokenbucket import PathTokenBucket

#: The queue modes ``admit`` tests, bound once as module constants: see
#: the note on :class:`~repro.core.queue_manager.QueueMode` for what an
#: Enum member lookup costs per packet.
_UNCONGESTED = QueueMode.UNCONGESTED
_CONGESTED = QueueMode.CONGESTED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..net.engine import Engine
    from ..net.topology import Link


#: The per-identifier containers of :class:`FLocPolicy` (the names
#: :meth:`FLocPolicy.state_census` reports) and the multiple of the path
#: budget — ``sketch_hot_paths`` or ``max_tracked_paths`` — each is held
#: to at every measurement refresh.  Path-keyed containers hold at most
#: one entry per tracked path.  Unit-keyed ones hold one per accounting
#: unit or pending handshake of a tracked path; each of those was
#: authenticated or bought with a SYN, so their multiple is the
#: flows-per-path of the traffic, never the attacker's churn rate — 4
#: covers the Fig. 5 tree at every scale the tests, chaos campaigns and
#: benchmarks run it at.
STATE_BOUNDS: Dict[str, int] = {
    "paths": 1,
    "lru": 1,
    "memo": 1,
    "conformance": 1,
    "groups": 1,
    "plan": 1,
    "tracker_units": 4,
    "blocked": 4,
    "syn_ticks": 4,
}


class _PathState:
    """Mutable per-origin-path bookkeeping."""

    __slots__ = (
        "pid",
        "flows",  # accounting unit -> last-seen tick
        "attack_flows",  # identified attack units
        "attack_streak",  # unit -> consecutive intervals identified
        "syn_ticks",  # flow_id -> SYN pass tick (for RTT)
        "rtt_ewma",
        "arrivals",  # data arrivals in the current measurement interval
        "lambda_rate",  # EWMA request rate, packets/tick
        "last_arrival",
        "sketch_idx",  # sketch backend: hash positions of ``pid``
    )

    def __init__(self, pid: PathId, initial_rtt: float) -> None:
        self.pid = pid
        self.flows: Dict[Hashable, int] = {}
        self.attack_flows: set = set()
        self.attack_streak: Dict[Hashable, int] = {}
        self.syn_ticks: Dict[int, int] = {}
        self.rtt_ewma = initial_rtt
        self.arrivals = 0
        self.lambda_rate = 0.0
        self.last_arrival = 0
        self.sketch_idx: Optional[SketchIndex] = None

    @property
    def n_flows(self) -> int:
        return max(1, len(self.flows))


class _GroupState:
    """Per-group (post-aggregation path identifier) bandwidth control."""

    __slots__ = (
        "key",
        "members",
        "share",
        "bucket",
        "bandwidth",
        "measured_ref_mtd",
        "interval_drops",
        "drop_rate_ewma",
        "sketch_idx",  # sketch backend: hash positions of ``key``
    )

    def __init__(
        self,
        key: Tuple,
        members: List[PathId],
        share: float,
        bucket: PathTokenBucket,
        bandwidth: float,
    ) -> None:
        self.key = key
        self.members = members
        self.share = share
        self.bucket = bucket
        self.bandwidth = bandwidth
        # reference MTD measured from the group's actual aggregate drop
        # rate: n_g * window / drops.  Under strict token admission the
        # bucket makes one drop per period, so this equals the paper's
        # n_i * T_Si; in congested mode (random-threshold drops, fewer of
        # them) it scales the reference so the MTD *ratio* — which is what
        # identifies attack flows, since drops are proportional to send
        # rates — stays meaningful.
        self.measured_ref_mtd: Optional[float] = None
        self.interval_drops = 0
        self.drop_rate_ewma = 0.0
        self.sketch_idx: Optional[SketchIndex] = None


class FLocPolicy(LinkPolicy):
    """FLoc admission control for one congested link."""

    # Admission scratch, not snapshot state: the refusal :meth:`on_drop`
    # is about to be told of — ``(packet, cause, unit, group)``, the last
    # two ``None`` where the refusal came before they were resolved — and
    # the target queue's length and mode as this tick's arrivals see them.
    # Class-level defaults, so a policy pickled before these existed
    # starts its next tick like any other.
    _pending: Optional[
        Tuple[Packet, str, Optional[Hashable], Optional[_GroupState]]
    ] = None
    _judged_tick = -1
    _tick_queue = 0
    _tick_mode = _UNCONGESTED

    def __init__(self, config: Optional[FLocConfig] = None) -> None:
        self.cfg = config or FLocConfig()
        self.issuer = CapabilityIssuer(self.cfg.secret, n_max=self.cfg.n_max)
        self.classifier = MtdClassifier(
            attack_mtd_fraction=self.cfg.attack_mtd_fraction,
            block_mtd_fraction=self.cfg.block_mtd_fraction,
        )
        self.conformance = ConformanceTracker(beta=self.cfg.beta)
        self.paths: Dict[PathId, _PathState] = {}
        self.groups: Dict[Tuple, _GroupState] = {}
        self.plan = AggregationPlan()
        self._blocked: Dict[Hashable, int] = {}
        self._initial_rtt = 12.0
        # LRU index over tracked paths, maintained only when a path limit
        # is active.  ``self.paths`` itself stays a plain insertion-order
        # dict: group member lists are built by iterating it, and their
        # order feeds float sums, so recency-reordering the main dict
        # would silently change exact-mode results.
        self._lru: "OrderedDict[PathId, None]" = OrderedDict()
        # sketch-backend overflow tier (None in exact mode)
        self.sketch: Optional[BoundedPathState] = None
        if self.cfg.state_backend == "sketch":
            self.sketch = BoundedPathState(
                self.cfg.sketch_width, self.cfg.sketch_depth
            )
        # experiment bookkeeping (like drop_stats, survives restarts)
        self.eviction_stats: Dict[str, int] = {"memory-pressure": 0, "restart": 0}
        self.tracked_paths_peak = 0
        # largest :meth:`state_census` reading per container, taken at
        # every measurement refresh
        self.state_peaks: Dict[str, int] = dict.fromkeys(STATE_BOUNDS, 0)
        # drop-cause counters, for experiments and tests
        self.drop_stats = {
            "spoofed": 0,
            "blocked": 0,
            "preferential": 0,
            "token": 0,
            "random": 0,
            "overflow": 0,
        }
        # fault-tolerance state: warm-up window after a restart (ticks are
        # absolute engine ticks; None = normal operation) and the clock
        # offset installed by a jitter fault
        self._warmup_until: Optional[int] = None
        self._clock_offset = 0

    # ------------------------------------------------------------------
    # engine lifecycle
    # ------------------------------------------------------------------
    def attach(self, link: "Link", engine: "Engine") -> None:
        super().attach(link, engine)
        buffer = link.buffer if link.buffer is not None else 10_000
        self.capacity = link.capacity if link.capacity is not None else float("inf")
        self.qm = QueueManager(
            buffer, self.cfg.q_min_fraction, rng=engine.spawn_rng("floc-qm")
        )
        self._rng = engine.spawn_rng("floc-pref")
        if self.cfg.use_drop_filter:
            self.tracker = None
            self.drop_filter = DropRecordFilter(
                k_bits=4,
                probabilistic_update=True,
                rng=engine.spawn_rng("floc-filter"),
            )
            self._filter_k_arrays = self.drop_filter.m
        else:
            self.tracker = FlowDropTracker(horizon=40 * self.cfg.measure_interval)
            self.drop_filter = None
        self._initial_rtt = max(4.0, engine.scale.seconds_to_ticks(0.1))

    def on_tick(self, tick: int) -> None:
        if self._warmup_until is not None and tick >= self._warmup_until:
            self._warmup_until = None
        tel = self.engine.telemetry
        if tel.enabled:
            tel.registry.histogram("floc_queue_depth_packets").observe(
                float(len(self.link.queue))
            )
        for group in self.groups.values():
            group.bucket.on_tick(tick)
        # measurement phase may be shifted by an injected clock jitter; the
        # periodic machinery keeps running (state refreshes re-converge the
        # estimates that warm-up mode is waiting on)
        phase = tick + self._clock_offset
        if phase and phase % self.cfg.measure_interval == 0:
            self._refresh(tick)
        if phase and phase % self.cfg.aggregation_interval == 0:
            self._aggregate(tick)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(self, pkt: Packet, tick: int) -> bool:
        """Decide one arrival, start to finish in this frame: a flooded
        router pays this per packet (Sections III-A, V-B).  The memo hit
        of the capability check, the early-activation test (Section
        V-A), Eq. IV.4's MTD with its window count, Eq. IV.5's service
        probability and the token take are written out here.  Three of
        these are copies of code kept elsewhere in ``repro``: the memo
        hit of ``CapabilityIssuer.authenticate`` (a miss still goes
        there), the window count of ``FlowDropTracker.drops_in_window``
        (which ``FlowDropTracker.mtd``, run by the refresh, calls) and
        the take of ``PathTokenBucket.request``; a change to one is a
        change to both.  The early test and Eq. IV.5 live on as
        verbatim copies in ``tests/core/test_admission_equivalence.py``,
        whose oracle holds this frame equal to them.  Its ``min``/``max``
        clamps are written as comparisons that give the same values:
        most packets under a flood are refusals of identified units, and
        a builtin call costs more than the test.  A refusal leaves the
        pending record :meth:`on_drop` consumes."""
        kind = pkt.kind
        if kind != DATA:
            if kind == SYN:
                pid = pkt.path_id
                state = self._path_state(pid, tick)
                pkt.capability = self.issuer.issue(
                    pkt.src_addr, pkt.dst_addr, pid
                )
                state.syn_ticks[pkt.flow_id] = tick
            return True

        cfg = self.cfg
        pid = pkt.path_id
        # authenticate before allocating (Section III-A): until C0 || C1
        # checks out, the identifier and the unit the packet names are
        # the sender's claim, and nothing is allocated, touched or
        # charged on a claim
        key = None
        if cfg.capability_checks:
            # the issuer's per-flow memo, read here: a remembered flow is
            # one constant-time comparison (CapabilityIssuer.authenticate's
            # memo branch, written out); any other flow is authenticate's
            # to check, so a forged identifier still costs one C0
            by_endpoints = self.issuer._flows.get(pid)
            entry = (
                None
                if by_endpoints is None
                else by_endpoints.get((pkt.src_addr, pkt.dst_addr))
            )
            if entry is None:
                key = self.issuer.authenticate(
                    pkt.capability, pkt.src_addr, pkt.dst_addr, pid
                )
            else:
                capability = pkt.capability
                if capability is not None and compare_digest(
                    capability, entry[0]
                ):
                    key = entry[1]
            if key is None:
                self._pending = (pkt, "spoofed", None, None)
                return False

        state = self.paths.get(pid)
        if state is None:
            state = self._path_state(pid, tick)
        elif (
            cfg.max_tracked_paths if self.sketch is None else cfg.sketch_hot_paths
        ) is not None:
            # a tracked path under a path limit (_path_limit): touch its
            # LRU slot; pop + reinsert = move_to_end without a KeyError hazard
            lru = self._lru
            lru.pop(pid, None)
            lru[pid] = None
        if key is None:
            key = self.issuer.account_key(pkt.src_addr, pkt.dst_addr, pid)
        state.arrivals += 1
        state.last_arrival = tick
        state.flows[key] = tick
        if state.syn_ticks:
            syn_tick = state.syn_ticks.pop(pkt.flow_id, None)
            if syn_tick is not None:
                sample = max(1.0, float(tick - syn_tick))
                state.rtt_ewma += 0.25 * (sample - state.rtt_ewma)

        if self._blocked:
            unblock = self._blocked.get(key)
            if unblock is not None:
                if tick < unblock:
                    self._pending = (pkt, "blocked", key, None)
                    return False
                del self._blocked[key]

        if tick != self._judged_tick:
            # the queue does not change while a tick's arrivals are
            # judged: its length and mode are taken once per tick
            self._judged_tick = tick
            self._tick_queue = len(self.link.queue)
            self._tick_mode = self.qm.mode(self._tick_queue)
        q_curr = self._tick_queue
        mode = self._tick_mode

        if self._warmup_until is not None:
            # post-restart warm-up: the token buckets and MTD records were
            # lost, so their decisions would be garbage.  Fall back to the
            # neutral congested-mode admission (random queue threshold,
            # footnote 8) — it needs no per-path history — while the state
            # bookkeeping above re-converges lambda_Si and the RTTs.
            if mode is not _UNCONGESTED and self.qm.random_drop(q_curr):
                self._pending = (pkt, "random", key, None)
                return False
            return True

        group = self.groups.get(self.plan.group_of.get(pid, pid))
        if group is None:
            group = self._group_state(pid, tick)
        if mode is _UNCONGESTED:
            # early bucket activation for an over-subscribing path:
            # Q_curr > Q_min * min(1, C_Si / lambda_Si)
            rate = state.lambda_rate
            if rate <= 0:
                return True
            ratio = group.bandwidth / rate
            if q_curr <= self.qm.q_min * (ratio if ratio < 1.0 else 1.0):
                return True
            mode = _CONGESTED

        # Eq. (IV.5): identified attack flows are serviced with probability
        # min(1, MTD(f) / (n_i * T_Si)) before competing for tokens.  Flows
        # that stay identified across measurement intervals — i.e. do not
        # respond to the drops — are penalised increasingly aggressively
        # (Section IV-B: "more aggressively penalizes the flows whose MTDs
        # keep decreasing") via an escalation exponent on the ratio.
        bucket = group.bucket
        if cfg.preferential_drop and key in state.attack_flows:
            # reference MTD: measured when drop records exist, else n * T
            reference = group.measured_ref_mtd
            if reference is None:
                reference = bucket.n_flows * bucket.period
            tracker = self.tracker
            if tracker is not None:
                # Eq. (IV.4) over k = max(n_g, mtd_window_periods) periods
                flows = 0
                paths = self.paths
                for member in group.members:
                    member_state = paths.get(member)
                    if member_state is not None:
                        flows += len(member_state.flows)
                periods = cfg.mtd_window_periods
                if flows > periods:
                    periods = flows
                if periods < 1:
                    periods = 1
                window = int(periods * bucket.period)
                if window < 1:
                    window = 1
                span = tracker.horizon
                if window <= span:
                    span = window
                # FlowDropTracker.drops_in_window, written out: trim the
                # records older than the horizon, bisect the window
                drops = 0
                record = tracker._drops.get(key)
                if record:
                    oldest = tick - tracker.horizon
                    while record and record[0] < oldest:
                        record.popleft()
                    drops = len(record) - bisect_right(record, tick - span)
                mtd_value = span / drops if drops else INFINITE_MTD
                if self.sketch is not None:
                    mtd_value = self._sketch_clamped_mtd(mtd_value, key, window)
                p_service = 1.0
                if reference > 0:
                    p_service = mtd_value / reference
                    if not p_service < 1.0:  # a nan ratio too, as in min
                        p_service = 1.0
            else:
                # scalable mode: Eq. (V.1) preferential drop ratio
                p_service = 1.0 - self.drop_filter.preferential_drop_ratio(
                    key, tick, reference
                )
            streak = state.attack_streak.get(key, 1)
            if streak > 1:
                exponent = 1.0 + 0.5 * (streak - 1)
                if exponent > 3.0:
                    exponent = 3.0
                p_service = p_service ** exponent
            if self._rng.random() > p_service:
                self._pending = (pkt, "preferential", key, group)
                return False

        # one token; congested mode draws on the increased bucket size and
        # falls back to the random threshold, flooding mode is strict at
        # the base size
        congested = mode is _CONGESTED
        bucket.use_increased = congested
        bucket.requests_total += 1
        if bucket.tokens >= 1.0:
            bucket.tokens -= 1.0
            tel = self.engine.telemetry
            if tel.enabled:
                tel.registry.counter("token_grants_count").inc()
            return True
        bucket.denials_total += 1
        if not congested:
            self._pending = (pkt, "token", key, group)
            return False
        if self.qm.random_drop(q_curr):
            self._pending = (pkt, "random", key, group)
            return False
        return True

    def pending_drop_cause(self) -> Optional[str]:
        """Telemetry peek: the cause :meth:`on_drop` is about to consume."""
        pending = self._pending
        return pending[1] if pending is not None else None

    def on_drop(self, pkt: Packet, tick: int) -> None:
        pending = self._pending
        self._pending = None
        if pending is not None and pending[0] is pkt:
            _, cause, key, group = pending
        else:
            # a tail drop; a record a wrapper left unconsumed names
            # another packet and is discarded with it
            cause, key, group = "overflow", None, None
        self.drop_stats[cause] += 1
        if pkt.kind != DATA or cause == "spoofed":
            # a forged packet names a unit it does not belong to: one
            # counter, and no record a legitimate flow could be framed by
            return
        pid = pkt.path_id
        if key is None:
            if pid not in self.paths:
                return
            key = self.issuer.account_key(pkt.src_addr, pkt.dst_addr, pid)
        if group is None:
            group = self._group_state(pid, tick)
        group.bucket.drops_this_period += 1
        group.interval_drops += 1
        tracker = self.tracker
        if tracker is not None:
            # FlowDropTracker.record_drop, written out for a unit that
            # holds a record and a tick in order; it opens a record and
            # refuses an out-of-order tick itself
            record = tracker._drops.get(key)
            if record is None or (record and tick < record[-1]):
                tracker.record_drop(key, tick)
            else:
                record.append(tick)
        else:
            # the filter decays one drop per "epoch"; the measured fair
            # reference MTD is exactly the legitimate one-drop interval
            self.drop_filter.record_drop(
                key,
                tick,
                self._reference_mtd(group),
                attack_domain=self.conformance.value(pid)
                < self.cfg.conformance_threshold,
                k_arrays=self._filter_k_arrays,
            )

    # ------------------------------------------------------------------
    # periodic state refresh
    # ------------------------------------------------------------------
    def _refresh(self, tick: int) -> None:
        cfg = self.cfg
        interval = cfg.measure_interval
        dead_paths = []
        for pid, state in self.paths.items():
            # request-rate EWMA
            inst = state.arrivals / interval
            state.lambda_rate = 0.5 * inst + 0.5 * state.lambda_rate
            state.arrivals = 0
            # expire idle accounting units
            horizon = tick - cfg.flow_active_window
            stale = [k for k, seen in state.flows.items() if seen < horizon]
            for k in stale:
                del state.flows[k]
                state.attack_flows.discard(k)
            if not state.flows and state.last_arrival < horizon:
                dead_paths.append(pid)
        for pid in dead_paths:
            self._forget_path(pid)

        # expire elapsed blocks eagerly: entries whose unblock tick has
        # passed admit identically either way, but units that never send
        # again (churned-away identifiers) must not pin memory forever
        expired_blocks = [k for k, t in self._blocked.items() if tick >= t]
        for k in expired_blocks:
            del self._blocked[k]

        self._rebuild_groups(tick)

        # measure per-group reference MTDs from aggregate drop rates.  The
        # reference is the expected drop interval of a flow sending at
        # exactly its fair share C_g/n_g: drops are proportional to send
        # rates, so that flow receives a (C_g/n_g)/lambda_g share of the
        # group's drops, giving
        #   ref = (lambda_g / C_g) * n_g * window / drops_g.
        # Under strict token admission (drops_g = excess = lambda - C) this
        # reduces to the paper's n_i * T_Si; under the congested-mode
        # random-threshold drops it rescales so the MTD *ratio* still
        # measures a flow's multiple of fair share.
        for group in self.groups.values():
            group_lambda = sum(
                self.paths[m].lambda_rate
                for m in group.members
                if m in self.paths
            )
            inst_rate = group.interval_drops / interval
            group.interval_drops = 0
            group.drop_rate_ewma = 0.5 * inst_rate + 0.5 * group.drop_rate_ewma
            if group.drop_rate_ewma > 1e-6:
                n = self._group_flows(group)
                oversub = max(1.0, group_lambda / max(group.bandwidth, 1e-9))
                group.measured_ref_mtd = oversub * n / group.drop_rate_ewma
            else:
                group.measured_ref_mtd = None

        # attack-flow identification + conformance update, per path
        tel = self.engine.telemetry
        for pid, state in self.paths.items():
            group = self._group_state(pid, tick)
            ref = self._reference_mtd(group)
            window = self._mtd_window(group)
            attack = set()
            for key in state.flows:
                if self.tracker is not None:
                    mtd_value = self.tracker.mtd(key, tick, window)
                    if self.sketch is not None:
                        mtd_value = self._sketch_clamped_mtd(
                            mtd_value, key, window
                        )
                    blocked = self.classifier.should_block(mtd_value, ref)
                    is_attack = self.classifier.is_attack_flow(mtd_value, ref)
                else:
                    # scalable mode (Section V-B): an extra drop per
                    # reference interval marks an attack flow
                    excess = self.drop_filter.excess_ratio(key, tick, ref)
                    is_attack = excess > 1.0
                    blocked = self.drop_filter.should_block(key, tick, ref)
                if blocked:
                    if tel.enabled and key not in self._blocked:
                        tel.registry.counter("mtd_blocks_count").inc()
                        if tel.trace_enabled:
                            tel.emit_event(
                                tick, "mtd_block", "mtd",
                                path_id=pid, unit=repr(key),
                            )
                    self._blocked[key] = tick + cfg.block_ticks
                    attack.add(key)
                elif is_attack:
                    attack.add(key)
            streaks = state.attack_streak
            for key in attack:
                streaks[key] = streaks.get(key, 0) + 1
            for key in list(streaks):
                if key not in attack:
                    del streaks[key]  # responded to drops: escalation resets
            # debounce: one suspicious interval is not identification — an
            # adaptive source backs off within an RTT, well inside one
            # measurement interval, so only persistence marks an attacker.
            # (This is Eq. IV.4's k-period averaging expressed as state.)
            old_attack = state.attack_flows
            state.attack_flows = {
                key for key in attack if streaks[key] >= 2
            }
            if tel.enabled and state.attack_flows != old_attack:
                identified = state.attack_flows - old_attack
                cleared = old_attack - state.attack_flows
                tel.registry.counter("mtd_transitions_count").inc(
                    float(len(identified) + len(cleared))
                )
                if tel.trace_enabled:
                    for key in sorted(identified, key=repr):
                        tel.emit_event(
                            tick, "mtd_identify", "mtd",
                            path_id=pid, unit=repr(key),
                        )
                    for key in sorted(cleared, key=repr):
                        tel.emit_event(
                            tick, "mtd_clear", "mtd",
                            path_id=pid, unit=repr(key),
                        )
            prev_conf = self.conformance.value(pid)
            new_conf = self.conformance.update(
                pid, len(state.flows), len(state.attack_flows)
            )
            if tel.enabled:
                threshold = cfg.conformance_threshold
                prev_class = ConformanceTracker.classify_value(
                    prev_conf, threshold
                )
                new_class = ConformanceTracker.classify_value(
                    new_conf, threshold
                )
                if prev_class != new_class:
                    tel.registry.counter("conformance_flips_count").inc()
                    if tel.trace_enabled:
                        tel.emit_event(
                            tick, "conformance_flip", "conformance",
                            path_id=pid, state=new_class,
                            value_ratio=new_conf,
                        )

        # scalable mode: recompute the array-selection degree k so the
        # legitimate-flow false-positive ratio stays within budget even
        # with huge attack-flow populations (Section V-B.5); with modest
        # flow counts this resolves to k = m (no selection needed).
        if self.drop_filter is not None:
            n_total = sum(len(s.flows) for s in self.paths.values())
            n_attack = sum(
                len(s.flows)
                for pid, s in self.paths.items()
                if self.conformance.value(pid) < cfg.conformance_threshold
            )
            self._filter_k_arrays = DropRecordFilter.select_k(
                max(1, n_total),
                n_attack,
                n_threshold=self.drop_filter.size / 8,
                m=self.drop_filter.m,
            )

        # Q_max tracks sum_i sqrt(n_i) * W_i
        windows = {}
        for pid, state in self.paths.items():
            group = self._group_state(pid, tick)
            n = state.n_flows
            share = group.bandwidth * (n / max(1, self._group_flows(group)))
            w = model.peak_window(max(share, 1e-6), group.bucket.rtt, n)
            windows[pid] = (n, w)
        self.qm.update_q_max(windows)

        if self.tracker is not None:
            self.tracker.forget_stale(tick)

        if self.sketch is not None:
            # exponential forgetting of folded drop history: half-life of
            # one measurement interval keeps revived MTD clamps honest
            self.sketch.decay_drops(0.5)

        peaks = self.state_peaks
        for name, size in self.state_census().items():
            if size > peaks[name]:
                peaks[name] = size

        if tel.enabled:
            reg = tel.registry
            reg.gauge("floc_paths_count").set(float(len(self.paths)))
            reg.gauge("floc_groups_count").set(float(len(self.groups)))
            reg.gauge("floc_blocked_units_count").set(float(len(self._blocked)))
            if self.sketch is not None:
                stats = self.sketch.stats()
                reg.gauge("sketch_memory_bytes").set(stats["memory_bytes"])
                reg.gauge("sketch_folds_count").set(stats["folds"])
                reg.gauge("sketch_revivals_count").set(stats["revivals"])
                reg.gauge("sketch_collisions_count").set(stats["collisions"])
                reg.gauge("sketch_fold_error_pkts_per_tick").set(
                    stats["fold_abs_error_total"]
                )

    def _aggregate(self, tick: int) -> None:
        cfg = self.cfg
        pids = list(self.paths.keys())
        if not pids:
            return
        s_max = cfg.s_max
        if s_max is None and cfg.min_guaranteed_share:
            s_max = max(1, int(1.0 / cfg.min_guaranteed_share))
        legit, attack = self.conformance.partition(
            pids, cfg.conformance_threshold
        )
        flow_counts = {pid: float(len(s.flows)) for pid, s in self.paths.items()}
        old_plan = self.plan
        self.plan = build_plan(
            legit,
            attack,
            self.conformance.values(),
            flow_counts,
            s_max,
            bandwidth_increase_cap=cfg.legit_agg_bandwidth_cap,
            legitimate_aggregation=cfg.legitimate_aggregation,
        )
        tel = self.engine.telemetry
        if tel.enabled:
            moves = plan_moves(old_plan, self.plan, pids)
            if moves:
                tel.registry.counter("aggregation_moves_count").inc(
                    float(len(moves))
                )
                if tel.trace_enabled:
                    for moved_pid, old_key, new_key, kind in moves:
                        tel.emit_event(
                            tick, f"aggregation_{kind}", "aggregation",
                            path_id=moved_pid, old_group=old_key,
                            new_group=new_key,
                        )
        if self.sketch is not None:
            # remember every live fill before the rebuild recreates the
            # buckets: an aggregation pass must not refill the attackers
            for group in self.groups.values():
                self._fold_bucket_fill(group)
        self.groups.clear()
        self._rebuild_groups(tick)

    def _rebuild_groups(self, tick: int) -> None:
        """Recompute group membership, shares, and bucket parameters."""
        # group membership from the current plan (new paths default to
        # singleton groups)
        members_of: Dict[Tuple, List[PathId]] = {}
        for pid in self.paths:
            key = self.plan.group(pid)
            members_of.setdefault(key, []).append(pid)
        weights = self.cfg.domain_weights
        total_shares = 0.0
        shares: Dict[Tuple, float] = {}
        for key, members in members_of.items():
            if weights and not (
                isinstance(key[0], str) and key[0] == "AGG-A"
            ):
                # ISP-agreement proportional allocation (footnote 1):
                # non-attack groups weigh the sum of their member
                # domains' weights
                share = sum(weights.get(pid[0], 1.0) for pid in members)
            else:
                share = self.plan.shares.get(key, 1.0)
            shares[key] = share
            total_shares += share
        if total_shares <= 0:
            return
        for key, members in members_of.items():
            bandwidth = self.capacity * shares[key] / total_shares
            n_flows = max(1, sum(len(self.paths[p].flows) for p in members))
            rtt = sum(self.paths[p].rtt_ewma for p in members) / len(members)
            rtt *= self.cfg.rtt_correction
            rtt = max(1.0, rtt)
            if self.cfg.estimate_flow_counts:
                previous = self.groups.get(key)
                conformant = all(
                    self.conformance.value(p) >= self.cfg.conformance_threshold
                    for p in members
                )
                if (
                    previous is not None
                    and previous.drop_rate_ewma > 1e-6
                    and conformant
                ):
                    # Section V-B.1: recover the flow count from the
                    # observable aggregate drop rate and path RTT alone.
                    # Valid only for conformant aggregates — an attack
                    # aggregate's drop rate far exceeds the TCP model's,
                    # which is precisely how attack paths are identified,
                    # so those keep their accounting-unit counts.
                    estimate = model.flows_from_drop_rate(
                        max(bandwidth, 1e-6), rtt, previous.drop_rate_ewma
                    )
                    n_flows = max(1, round(estimate))
            group = self.groups.get(key)
            if group is None or group.members != members:
                if group is not None and self.sketch is not None:
                    self._fold_bucket_fill(group)
                bucket = PathTokenBucket(bandwidth, rtt, n_flows, now=tick)
                self.groups[key] = self._new_group(
                    key, members, shares[key], bucket, bandwidth
                )
            else:
                group.share = shares[key]
                group.bandwidth = bandwidth
                group.bucket.set_params(bandwidth, rtt, n_flows)
        # retire groups with no members
        live = set(members_of)
        for key in list(self.groups):
            if key not in live:
                if self.sketch is not None:
                    self._fold_bucket_fill(self.groups[key])
                del self.groups[key]

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _path_limit(self) -> Optional[int]:
        """Hot-tier size cap: the sketch backend's budget, or the
        explicit ``max_tracked_paths`` bound (``None`` = unbounded)."""
        if self.sketch is not None:
            return self.cfg.sketch_hot_paths
        return self.cfg.max_tracked_paths

    def _path_state(self, pid: PathId, tick: int = 0) -> _PathState:
        state = self.paths.get(pid)
        limit = self._path_limit()
        if state is None:
            if limit is not None and len(self.paths) >= limit:
                self._evict_path(tick)
            state = _PathState(pid, self._initial_rtt)
            if self.sketch is not None:
                # derived once, here; every later fold and seed of this
                # path (and of its singleton group) reuses them
                state.sketch_idx = self.sketch.path_indices(pid)
                seeded = self.sketch.seed_path(pid, state.sketch_idx)
                if seeded is not None:
                    # sketch-tier revival: a previously evicted path
                    # resumes from its (approximate) earned history
                    # instead of cold defaults
                    lam, rtt, conf = seeded
                    state.lambda_rate = lam
                    if rtt > 0.0:
                        state.rtt_ewma = rtt
                    if conf is not None:
                        self.conformance.seed(pid, conf)
            self.paths[pid] = state
            if limit is not None:
                self._lru[pid] = None
            if len(self.paths) > self.tracked_paths_peak:
                self.tracked_paths_peak = len(self.paths)
        elif limit is not None:
            # pop + reinsert = move_to_end without a KeyError hazard
            self._lru.pop(pid, None)
            self._lru[pid] = None
        return state

    def _forget_path(self, pid: PathId) -> None:
        """Drop a path and what is keyed by its identifier alone: its
        conformance, its flows' capability memo, its LRU slot."""
        del self.paths[pid]
        self.conformance.forget(pid)
        self.issuer.forget(pid)
        self._lru.pop(pid, None)

    def _evict_path(self, tick: int) -> None:
        """Memory pressure: drop the least-recently-touched path, O(1).

        In exact mode the evicted path is not punished — if its traffic
        continues, its state regenerates from scratch exactly as after a
        partial restart (flows re-register, RTT re-estimates from the
        next SYN).  In sketch mode its decision-relevant scalars are
        folded into the bounded tier first and seeded back on revival.
        Either way *all* collateral per-path state is released: MTD drop
        records, blocks, and group membership must not outlive the path
        (the Section V-B drop filter is hash-indexed and has no per-path
        entries to release).
        """
        if self._lru:
            victim, _ = self._lru.popitem(last=False)
        else:
            victim = min(self.paths, key=lambda p: self.paths[p].last_arrival)
        self._release_path(victim, tick, cause="memory-pressure")

    def _release_path(self, pid: PathId, tick: int, cause: str) -> None:
        """Fold (sketch mode) and free every trace of an evicted path."""
        state = self.paths[pid]
        if self.sketch is not None:
            self.sketch.fold_path(
                pid,
                state.lambda_rate,
                state.rtt_ewma,
                self.conformance.known_value(pid),
                state.sketch_idx,
            )
        self._forget_path(pid)
        for key in state.flows:
            if self.tracker is not None:
                if self.sketch is not None:
                    drops = self.tracker.drop_count(key)
                    if drops:
                        self.sketch.fold_unit_drops(key, float(drops))
                self.tracker.forget(key)
            self._blocked.pop(key, None)
        group_key = self.plan.group(pid)
        group = self.groups.get(group_key)
        if group is not None and pid in group.members:
            group.members.remove(pid)
            if not group.members:
                if self.sketch is not None:
                    self._fold_bucket_fill(group)
                del self.groups[group_key]
        self.eviction_stats[cause] = self.eviction_stats.get(cause, 0) + 1
        tel = self.engine.telemetry
        if tel.enabled:
            tel.registry.labeled("path_evictions_by_cause_count").inc(cause)
            if tel.trace_enabled:
                tel.emit_event(
                    tick, "path_evict", "policy",
                    path_id=pid, cause=cause,
                    backend=self.cfg.state_backend,
                )

    def _group_state(self, pid: PathId, tick: int) -> _GroupState:
        key = self.plan.group(pid)
        group = self.groups.get(key)
        if group is None:
            state = self._path_state(pid, tick)
            n_paths = max(1, len(self.paths))
            bandwidth = self.capacity / n_paths
            rtt = max(1.0, state.rtt_ewma * self.cfg.rtt_correction)
            bucket = PathTokenBucket(bandwidth, rtt, state.n_flows, now=tick)
            group = self._new_group(key, [pid], 1.0, bucket, bandwidth)
            self.groups[key] = group
        return group

    def _new_group(
        self,
        key: Tuple,
        members: List[PathId],
        share: float,
        bucket: PathTokenBucket,
        bandwidth: float,
    ) -> _GroupState:
        """A group around a fresh ``bucket``.  Sketch mode: the group
        carries its key's hash positions, and a re-created group's bucket
        resumes from its remembered fill fraction instead of a free full
        refill — churning identifiers must not mint fresh token capacity."""
        group = _GroupState(key, members, share, bucket, bandwidth)
        if self.sketch is not None:
            # a singleton group is keyed by its path id: same repr, same
            # digest, so it shares the path's sketch rows; an aggregated
            # key is hashed on its own
            shared = self.paths[key].sketch_idx if members == [key] else None
            group.sketch_idx = self.sketch.bucket_indices(key, shared)
            fill = self.sketch.seed_bucket(key, group.sketch_idx)
            if fill is not None:
                bucket.tokens = min(bucket.tokens, fill * bucket.size)
        return group

    def _fold_bucket_fill(self, group: _GroupState) -> None:
        """Sketch mode: remember a retiring group's bucket fill."""
        assert self.sketch is not None
        bucket = group.bucket
        self.sketch.fold_bucket(
            group.key, bucket.tokens / max(bucket.size, 1e-9), group.sketch_idx
        )

    def _group_flows(self, group: _GroupState) -> int:
        flows = 0
        for pid in group.members:
            state = self.paths.get(pid)
            if state is not None:
                flows += len(state.flows)
        return max(1, flows)

    def _reference_mtd(self, group: _GroupState) -> float:
        """Reference MTD: measured when drop records exist, else n*T."""
        if group.measured_ref_mtd is not None:
            return group.measured_ref_mtd
        return group.bucket.reference_mtd

    def _mtd_window(self, group: _GroupState) -> int:
        k = max(self._group_flows(group), self.cfg.mtd_window_periods)
        return max(1, int(k * group.bucket.period))

    def _sketch_clamped_mtd(
        self, exact_mtd: float, key: Hashable, window: int
    ) -> float:
        """Sketch mode: a unit's folded (pre-eviction) drop history keeps
        bounding its MTD from above, so evicting a path under memory
        pressure does not launder its own units' drop records when the
        same unit returns."""
        assert self.sketch is not None  # both callers checked
        est = self.sketch.unit_drop_estimate(key)
        if est >= 1.0:
            return min(exact_mtd, window / est)
        return exact_mtd

    # ------------------------------------------------------------------
    # fault tolerance: checkpointing, restart, partial state loss
    # ------------------------------------------------------------------
    #: Every mutable attribute that admission decisions depend on.  RNG
    #: objects are included deliberately: a restored policy must replay the
    #: same preferential/random-threshold draws as an uninterrupted one.
    _SNAPSHOT_ATTRS = (
        "paths",
        "groups",
        "plan",
        "_blocked",
        "_lru",
        "sketch",
        "eviction_stats",
        "tracked_paths_peak",
        "state_peaks",
        "drop_stats",
        "_warmup_until",
        "_clock_offset",
        "_initial_rtt",
        "conformance",
        "tracker",
        "drop_filter",
        "_filter_k_arrays",
        "qm",
        "_rng",
    )

    def snapshot(self) -> Dict[str, object]:
        """Checkpoint the policy's full mutable state.

        The snapshot is an independent deep copy: mutating the live policy
        afterwards does not invalidate it, and it can be restored more
        than once.  ``attach`` must have run first (the trackers and RNGs
        are created there).
        """
        if not hasattr(self, "qm"):
            raise SimulationError(
                "snapshot before attach; the policy has no runtime state yet"
            )
        return copy.deepcopy(
            {name: getattr(self, name, None) for name in self._SNAPSHOT_ATTRS}
        )

    def restore(self, snap: Dict[str, object]) -> None:
        """Restore a :meth:`snapshot`; admission decisions after the
        restore are identical to an uninterrupted policy's given the same
        packet sequence and link state."""
        if not hasattr(self, "qm"):
            raise SimulationError(
                "restore before attach; attach the policy to a link first"
            )
        for name, value in copy.deepcopy(snap).items():
            setattr(self, name, value)
        self._forget_scratch()
        # memo entries of paths the snapshot does not track would never
        # be released; the memo is pure, so it refills from live traffic
        self.issuer.clear()

    def restart(self, tick: int) -> None:
        """Cold router restart: all volatile state is lost.

        Token buckets, MTD/drop records, conformance, aggregation plan,
        blocks — everything except the capability keys (derived from the
        configured secret, so already-issued capabilities stay valid) is
        wiped, and the policy enters *warm-up mode* for
        ``cfg.restart_warmup_ticks``: neutral congested-mode admission
        until the ``lambda_Si``/RTT estimates re-converge.  Cumulative
        ``drop_stats`` are kept (they are experiment bookkeeping, not
        router state).
        """
        if not hasattr(self, "qm"):
            raise SimulationError(
                "restart before attach; the policy has no runtime state yet"
            )
        lost = len(self.paths)
        if lost:
            self.eviction_stats["restart"] = (
                self.eviction_stats.get("restart", 0) + lost
            )
            tel = self.engine.telemetry
            if tel.enabled:
                tel.registry.labeled("path_evictions_by_cause_count").inc(
                    "restart", lost
                )
                if tel.trace_enabled:
                    tel.emit_event(
                        tick, "path_evict", "policy",
                        cause="restart", count=lost,
                        backend=self.cfg.state_backend,
                    )
        self.paths.clear()
        self._lru.clear()
        self.issuer.clear()
        if self.sketch is not None:
            # the sketch tier is volatile router memory too: a cold
            # restart loses it along with the exact state
            self.sketch = BoundedPathState(
                self.cfg.sketch_width, self.cfg.sketch_depth
            )
        self.groups.clear()
        self.plan = AggregationPlan()
        self._blocked.clear()
        self.conformance = ConformanceTracker(beta=self.cfg.beta)
        if self.tracker is not None:
            self.tracker = FlowDropTracker(
                horizon=40 * self.cfg.measure_interval
            )
        if self.drop_filter is not None:
            # fresh arrays; keep the live RNG so the replayed randomness
            # stays deterministic for the whole (scenario, seed) run
            self.drop_filter = DropRecordFilter(
                m=self.drop_filter.m,
                bits=self.drop_filter.bits,
                k_bits=self.drop_filter.k_bits,
                probabilistic_update=self.drop_filter.probabilistic_update,
                rng=self.drop_filter._rng,
            )
            self._filter_k_arrays = self.drop_filter.m
        self.qm = QueueManager(
            self.qm.buffer_size,
            self.cfg.q_min_fraction,
            rng=self.qm._rng,
        )
        self._forget_scratch()
        self._warmup_until = tick + self.cfg.restart_warmup_ticks

    def corrupt_state(self, fraction: float, rng: random.Random) -> None:
        """Partial state loss: forget a random ``fraction`` of the per-path
        states, blocks, drop records, and token balances — the
        line-card-failure analogue of :meth:`restart`.  The surviving
        state keeps operating; lost paths regenerate from live traffic."""
        self._forget_scratch()
        for pid in [p for p in self.paths if rng.random() < fraction]:
            self._forget_path(pid)
        for key in [k for k in self._blocked if rng.random() < fraction]:
            del self._blocked[key]
        if self.tracker is not None:
            for key in [
                k for k in self.tracker.units() if rng.random() < fraction
            ]:
                self.tracker.forget(key)
        for group in self.groups.values():
            if rng.random() < fraction:
                group.bucket.tokens = 0.0
                group.interval_drops = 0

    def _forget_scratch(self) -> None:
        """Drop the pending refusal and the tick-scoped queue reading:
        the state they were taken from is being replaced."""
        self._pending = None
        self._judged_tick = -1

    def jitter_clock(self, offset: int) -> None:
        """Shift the measurement-interval phase by ``offset`` ticks."""
        self._clock_offset = int(offset)

    @property
    def in_warmup(self) -> bool:
        """Whether the policy is in its post-restart warm-up window."""
        return self._warmup_until is not None

    @property
    def warmup_until(self) -> Optional[int]:
        """Tick at which the current warm-up window ends, or ``None``
        outside warm-up — the recovery-deadline anchor used by the
        :mod:`repro.chaos` SLO oracles."""
        return self._warmup_until

    # ------------------------------------------------------------------
    # introspection (experiments / tests)
    # ------------------------------------------------------------------
    def identified_attack_units(self) -> set:
        """Union of accounting units currently classified as attacking."""
        out = set()
        for state in self.paths.values():
            out |= state.attack_flows
        return out

    def state_census(self) -> Dict[str, int]:
        """Entries held right now in each per-identifier container, under
        the names of :data:`STATE_BOUNDS`."""
        return {
            "paths": len(self.paths),
            "lru": len(self._lru),
            "memo": self.issuer.memoised_paths(),
            "conformance": len(self.conformance),
            "groups": len(self.groups),
            "plan": len(self.plan.group_of),
            "tracker_units": (
                self.tracker.tracked_units() if self.tracker is not None else 0
            ),
            "blocked": len(self._blocked),
            "syn_ticks": sum(len(s.syn_ticks) for s in self.paths.values()),
        }
