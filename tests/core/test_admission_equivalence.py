"""Verbatim-oracle equivalence for FLoc's per-packet admission.

``FLocPolicy`` decides a DATA packet in one Python frame and hands
``on_drop`` the unit and group the refusal already resolved.  The digests
of ``tests/net/test_engine_lock.py`` and ``tests/sketch/test_sketch_lock.py``
prove that nothing moved *at the inputs they were pinned at*; this suite
carries the parent's admission chain (``admit -> _admit_data -> verify ->
_path_state -> account_key -> _group_state -> _mtd -> ... ->
bucket.request`` and the ``on_drop`` that recomputed the unit and group),
copied verbatim at ``af4b032`` before any edit, and lets hypothesis draw
the scenario's *shape*: state backend, path budget, the two ablation
switches (one of them flipped mid-run), forged and stale capabilities,
SYN-only churn bots, block-rate floods, a bounded target buffer, and
restart / corrupt_state / jitter_clock / snapshot / restore events.  The two
routers run side by side on the Fig. 5 tree and are compared after every
tick: every attribute a snapshot holds (both RNG states included), the
capability memo, the drop counters, the target link, and under trace
telemetry the event list element by element.

The oracle also carries the parent's ``CapabilityIssuer`` and
``FlowDropTracker`` methods the chain enters, and the three methods whose
arithmetic ``FLocPolicy.admit`` and ``on_drop`` write out inline:
``QueueManager.early_congestion``, ``MtdClassifier.service_probability``
and ``PathTokenBucket.record_drop``.  These three live only here now, as
verbatim module-level copies the oracle calls with the component as
``self``; the router's inline code is the one copy in ``src``, and this
suite is what holds the two equal.  ``PathTokenBucket.request``,
``QueueManager.mode`` / ``random_drop`` and ``DropRecordFilter`` are
shared with the code under test.
"""

from __future__ import annotations

import array
import hmac
import itertools
import random
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.capability import _DIGEST_BYTES, AccountKey, CapabilityIssuer
from repro.core.config import FLocConfig
from repro.core.dropfilter import DropRecordFilter
from repro.core.mtd import INFINITE_MTD, FlowDropTracker
from repro.core.pathid import PathId
from repro.core.queue_manager import QueueMode
from repro.core.router import FLocPolicy, _GroupState, _PathState
from repro.core.tokenbucket import PathTokenBucket
from repro.net.packet import DATA, SYN, Packet
from repro.telemetry import NULL_TELEMETRY, Telemetry, use
from repro.traffic import PathChurnFloodSource
from repro.traffic.cbr import CbrSource
from repro.traffic.scenarios import DST_HUB, ROOT, build_tree_scenario


# ----------------------------------------------------------------------
# the oracle: the parent's methods, verbatim
# ----------------------------------------------------------------------
class OracleIssuer(CapabilityIssuer):
    """``CapabilityIssuer`` with the memo access of ``af4b032``."""

    def _flow(
        self, src_addr: Hashable, dst_addr: Hashable, pid: PathId
    ) -> Tuple[bytes, AccountKey]:
        """The flow's memo entry, computed on first sight."""
        by_endpoints = self._flows.get(pid)
        if by_endpoints is None:
            by_endpoints = self._flows[pid] = {}
        entry = by_endpoints.get((src_addr, dst_addr))
        if entry is None:
            bucket = self.fanout_bucket(dst_addr)
            capability = self._c0(src_addr, dst_addr, pid) + self._c1(
                src_addr, bucket, pid
            )
            entry = (capability, (src_addr, bucket, pid))
            by_endpoints[(src_addr, dst_addr)] = entry
        return entry


    def issue(
        self, src_addr: Hashable, dst_addr: Hashable, pid: PathId
    ) -> bytes:
        """Issue ``C0 || C1`` for a new connection."""
        return self._flow(src_addr, dst_addr, pid)[0]

    def verify(
        self,
        capability: Optional[bytes],
        src_addr: Hashable,
        dst_addr: Hashable,
        pid: PathId,
    ) -> bool:
        """Check both halves against the packet's addresses and path.

        Read-only: a flow the memo holds costs one comparison; any other
        is checked half by half and leaves no entry behind — ``C1`` is
        computed only once ``C0`` has matched, so a forged identifier
        costs one HMAC and no state.  The answer is that of
        ``compare_digest(capability, issue(src, dst, pid))`` either way.
        """
        if capability is None or len(capability) != 2 * _DIGEST_BYTES:
            return False
        by_endpoints = self._flows.get(pid)
        if by_endpoints is not None:
            entry = by_endpoints.get((src_addr, dst_addr))
            if entry is not None:
                return hmac.compare_digest(capability, entry[0])
        if not hmac.compare_digest(
            capability[:_DIGEST_BYTES], self._c0(src_addr, dst_addr, pid)
        ):
            return False
        return hmac.compare_digest(
            capability[_DIGEST_BYTES:],
            self._c1(src_addr, self.fanout_bucket(dst_addr), pid),
        )

    def account_key(
        self, src_addr: Hashable, dst_addr: Hashable, pid: PathId
    ) -> AccountKey:
        """The unit at which the router accounts flow bandwidth and drops.

        All flows of one source whose destinations hash into the same
        ``C1`` bucket share an accounting unit — this is what defeats the
        covert attack's per-flow innocence.
        """
        return self._flow(src_addr, dst_addr, pid)[1]

class OracleTracker(FlowDropTracker):
    """``FlowDropTracker`` with the window count of ``af4b032``."""

    def record_drop(self, key: Hashable, tick: int) -> None:
        """Record one drop of accounting unit ``key`` at ``tick``."""
        dq = self._drops.get(key)
        if dq is None:
            dq = deque()
            self._drops[key] = dq
        elif dq and tick < dq[-1]:
            raise ValueError(
                f"drop at tick {tick} is older than the newest record "
                f"({dq[-1]}) of unit {key!r}"
            )
        dq.append(tick)

    def _trim(self, dq: Deque[int], oldest: int) -> None:
        while dq and dq[0] < oldest:
            dq.popleft()

    def drops_in_window(self, key: Hashable, tick: int, window: int) -> int:
        """Drops of ``key`` within ``(tick - window, tick]``, in time
        proportional to that count rather than to the retained record."""
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        dq = self._drops.get(key)
        if not dq:
            return 0
        self._trim(dq, tick - self.horizon)
        oldest = tick - window
        count = 0
        for t in reversed(dq):
            if t <= oldest:
                break
            count += 1
        return count

    def mtd(self, key: Hashable, tick: int, window: int) -> float:
        """Eq. (IV.4): ``window / drops``; infinite when drop-free."""
        window = min(window, self.horizon)
        drops = self.drops_in_window(key, tick, window)
        if drops == 0:
            return INFINITE_MTD
        return window / drops


# The parent's QueueManager.early_congestion,
# MtdClassifier.service_probability and PathTokenBucket.record_drop,
# verbatim: src keeps only the router's inline form of each, and the
# oracle calls these with the component as ``self``.
def early_congestion(
    self, q_curr: int, bandwidth: float, request_rate: float
) -> bool:
    """Early token-bucket activation test for over-subscribing paths.

    True when ``Q_curr > Q_min * min(1, C_Si / lambda_Si)`` — attack
    paths hit this before legitimate ones (Section V-A, uncongested
    mode).
    """
    if request_rate <= 0:
        return False
    threshold = self.q_min * min(1.0, bandwidth / request_rate)
    return q_curr > threshold


def service_probability(self, mtd: float, reference_mtd: float) -> float:
    """Eq. (IV.5) without the token indicator: ``min(1, MTD/ref)``."""
    if reference_mtd <= 0 or mtd == INFINITE_MTD:
        return 1.0
    return min(1.0, mtd / reference_mtd)


def record_drop(self) -> None:
    """Count a packet drop charged to this path in the current period."""
    self.drops_this_period += 1


class OraclePolicy(FLocPolicy):
    """``FLocPolicy`` with the admission chain of ``af4b032``.

    The components the chain enters are re-classed to their oracle forms
    wherever the policy (re)creates them.
    """

    _pending_drop_cause: Optional[str] = None

    def _adopt(self) -> None:
        self.issuer.__class__ = OracleIssuer
        if self.tracker is not None:
            self.tracker.__class__ = OracleTracker

    def attach(self, link: Any, engine: Any) -> None:
        super().attach(link, engine)
        self._adopt()

    def restart(self, tick: int) -> None:
        super().restart(tick)
        self._pending_drop_cause = None
        self._adopt()

    def restore(self, snap: Dict[str, object]) -> None:
        super().restore(snap)
        self._adopt()

    # -- verbatim from here --------------------------------------------
    def admit(self, pkt: Packet, tick: int) -> bool:
        if pkt.kind == SYN:
            return self._admit_syn(pkt, tick)
        if pkt.kind != DATA:
            return True
        return self._admit_data(pkt, tick)

    def _admit_syn(self, pkt: Packet, tick: int) -> bool:
        pid = pkt.path_id
        state = self._path_state(pid, tick)
        pkt.capability = self.issuer.issue(pkt.src_addr, pkt.dst_addr, pid)
        state.syn_ticks[pkt.flow_id] = tick
        return True

    def _admit_data(self, pkt: Packet, tick: int) -> bool:
        cfg = self.cfg
        pid = pkt.path_id
        # authenticate before allocating (Section III-A): until C0 || C1
        # checks out, the identifier and the unit the packet names are
        # the sender's claim, and nothing is allocated, touched or
        # charged on a claim
        if cfg.capability_checks and not self.issuer.verify(
            pkt.capability, pkt.src_addr, pkt.dst_addr, pid
        ):
            self._pending_drop_cause = "spoofed"
            return False

        state = self._path_state(pid, tick)
        key = self.issuer.account_key(pkt.src_addr, pkt.dst_addr, pid)
        state.arrivals += 1
        state.last_arrival = tick
        state.flows[key] = tick
        syn_tick = state.syn_ticks.pop(pkt.flow_id, None)
        if syn_tick is not None:
            sample = max(1.0, float(tick - syn_tick))
            state.rtt_ewma += 0.25 * (sample - state.rtt_ewma)

        unblock = self._blocked.get(key)
        if unblock is not None:
            if tick < unblock:
                self._pending_drop_cause = "blocked"
                return False
            del self._blocked[key]

        if self._warmup_until is not None:
            # post-restart warm-up: the token buckets and MTD records were
            # lost, so their decisions would be garbage.  Fall back to the
            # neutral congested-mode admission (random queue threshold,
            # footnote 8) — it needs no per-path history — while the state
            # bookkeeping above re-converges lambda_Si and the RTTs.
            q_curr = len(self.link.queue)
            if self.qm.mode(q_curr) is QueueMode.UNCONGESTED:
                return True
            if self.qm.random_drop(q_curr):
                self._pending_drop_cause = "random"
                return False
            return True

        group = self._group_state(pid, tick)
        q_curr = len(self.link.queue)
        mode = self.qm.mode(q_curr)
        if mode is QueueMode.UNCONGESTED:
            if not early_congestion(
                self.qm, q_curr, group.bandwidth, state.lambda_rate
            ):
                return True
            mode = QueueMode.CONGESTED

        # Eq. (IV.5): identified attack flows are serviced with probability
        # min(1, MTD(f) / (n_i * T_Si)) before competing for tokens.  Flows
        # that stay identified across measurement intervals — i.e. do not
        # respond to the drops — are penalised increasingly aggressively
        # (Section IV-B: "more aggressively penalizes the flows whose MTDs
        # keep decreasing") via an escalation exponent on the ratio.
        if cfg.preferential_drop and key in state.attack_flows:
            if self.tracker is not None:
                mtd_value = self._mtd(key, tick, group)
                p_service = service_probability(
                    self.classifier, mtd_value, self._reference_mtd(group)
                )
            else:
                # scalable mode: Eq. (V.1) preferential drop ratio
                p_service = 1.0 - self.drop_filter.preferential_drop_ratio(
                    key, tick, self._reference_mtd(group)
                )
            streak = state.attack_streak.get(key, 1)
            if streak > 1:
                p_service = p_service ** min(3.0, 1.0 + 0.5 * (streak - 1))
            if self._rng.random() > p_service:
                self._pending_drop_cause = "preferential"
                return False

        bucket = group.bucket
        tel = self.engine.telemetry
        if mode is QueueMode.CONGESTED:
            bucket.use_increased = True
            if bucket.request():
                if tel.enabled:
                    tel.registry.counter("token_grants_count").inc()
                return True
            if self.qm.random_drop(q_curr):
                self._pending_drop_cause = "random"
                return False
            return True
        # flooding mode: strict tokens at the base bucket size
        bucket.use_increased = False
        if bucket.request():
            if tel.enabled:
                tel.registry.counter("token_grants_count").inc()
            return True
        self._pending_drop_cause = "token"
        return False

    def pending_drop_cause(self) -> Optional[str]:
        """Telemetry peek: the cause :meth:`on_drop` is about to consume."""
        return self._pending_drop_cause

    def on_drop(self, pkt: Packet, tick: int) -> None:
        cause = self._pending_drop_cause or "overflow"
        self._pending_drop_cause = None
        self.drop_stats[cause] += 1
        if pkt.kind != DATA or cause == "spoofed":
            # a forged packet names a unit it does not belong to: one
            # counter, and no record a legitimate flow could be framed by
            return
        pid = pkt.path_id
        state = self.paths.get(pid)
        if state is None:
            return
        key = self.issuer.account_key(pkt.src_addr, pkt.dst_addr, pid)
        group = self._group_state(pid, tick)
        record_drop(group.bucket)
        group.interval_drops += 1
        if self.tracker is not None:
            self.tracker.record_drop(key, tick)
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

    def _group_flows(self, group: _GroupState) -> int:
        return max(
            1,
            sum(
                len(self.paths[p].flows) for p in group.members if p in self.paths
            ),
        )

    def _reference_mtd(self, group: _GroupState) -> float:
        """Reference MTD: measured when drop records exist, else n*T."""
        if group.measured_ref_mtd is not None:
            return group.measured_ref_mtd
        return group.bucket.reference_mtd

    def _mtd_window(self, group: _GroupState) -> int:
        k = max(self._group_flows(group), self.cfg.mtd_window_periods)
        return max(1, int(k * group.bucket.period))

    def _mtd(
        self,
        key: Hashable,
        tick: int,
        group: _GroupState,
        window: Optional[int] = None,
    ) -> float:
        """Exact-mode MTD (Eq. IV.4); the scalable mode uses the drop
        filter's Eq. (V.1) machinery directly instead."""
        if window is None:
            window = self._mtd_window(group)
        if self.tracker is None:
            ref = self._reference_mtd(group)
            excess = self.drop_filter.excess_ratio(key, tick, ref)
            if excess <= 0:
                return INFINITE_MTD
            return ref / (1.0 + excess)
        mtd_value = self.tracker.mtd(key, tick, window)
        if self.sketch is not None:
            mtd_value = self._sketch_clamped_mtd(mtd_value, key, window)
        return mtd_value

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

    def corrupt_state(self, fraction: float, rng: random.Random) -> None:
        """Partial state loss: forget a random ``fraction`` of the per-path
        states, blocks, drop records, and token balances — the
        line-card-failure analogue of :meth:`restart`.  The surviving
        state keeps operating; lost paths regenerate from live traffic."""
        for pid in [p for p in self.paths if rng.random() < fraction]:
            self._forget_path(pid)
        for key in [k for k in self._blocked if rng.random() < fraction]:
            del self._blocked[key]
        if self.tracker is not None:
            for key in [
                k for k in list(self.tracker._drops) if rng.random() < fraction
            ]:
                self.tracker.forget(key)
        for group in self.groups.values():
            if rng.random() < fraction:
                group.bucket.tokens = 0.0
                group.interval_drops = 0


# ----------------------------------------------------------------------
# the scenario: the Fig. 5 tree, its shape drawn
# ----------------------------------------------------------------------
#: Short intervals and a fast conformance EWMA, so that conviction,
#: aggregation, blocks, expiry and a whole warm-up fit inside one example.
FAST = dict(
    s_max=10,
    measure_interval=25,
    aggregation_interval=50,
    beta=0.4,
    restart_warmup_ticks=40,
    flow_active_window=75,
    block_ticks=60,
)

BACKENDS: Dict[str, Dict[str, Any]] = {
    "exact": {},
    "sketch": {"state_backend": "sketch", "sketch_width": 256},
    "filter": {"use_drop_filter": True},
}

#: What the parent's ``snapshot()`` held, less the pending cause (``None``
#: at every tick boundary; the change replaces it with a record that names
#: its packet and is not snapshot state).
SNAPSHOT_ATTRS = (
    "paths", "groups", "plan", "_blocked", "_lru", "sketch",
    "eviction_stats", "tracked_paths_peak", "state_peaks", "drop_stats",
    "_warmup_until", "_clock_offset", "_initial_rtt", "conformance",
    "tracker", "drop_filter", "_filter_k_arrays", "qm", "_rng",
)

EVENTS = ("flip-checks", "restart", "corrupt", "jitter", "snapshot", "restore")
FORGERIES = ("none", "zeros", "short", "other-flow", "wrong-c1")


@dataclass(frozen=True)
class Shape:
    backend: str  # "exact" | "sketch" | "filter"
    path_budget: Optional[int]  # max_tracked_paths / sketch_hot_paths
    capability_checks: bool
    preferential_drop: bool
    buffer: Optional[int]  # target-link buffer; None = the scenario's
    attack_rate_mbps: float
    churn: Tuple[Tuple[int, bool], ...]  # (churn_interval, rehandshake)
    forged: Tuple[str, ...]  # one handshake-less bot per entry
    events: Tuple[Tuple[int, str], ...]
    trace: bool
    seed: int


@dataclass
class Run:
    engine: Any
    policy: FLocPolicy
    link: Any
    telemetry: Optional[Telemetry]
    seen_events: int = 0


def forged_capability(kind: str, cfg: FLocConfig, flow: Any) -> Optional[bytes]:
    issuer = CapabilityIssuer(cfg.secret, n_max=cfg.n_max)
    good = issuer.issue(flow.src_host, flow.dst_host, flow.path_id)
    if kind == "none":
        return None
    if kind == "zeros":
        return b"\x00" * len(good)
    if kind == "short":
        return good[:-1]
    if kind == "other-flow":
        return issuer.issue("someone-else", flow.dst_host, flow.path_id)
    half = len(good) // 2  # an authentic C0 in front of a wrong C1
    return good[:half] + bytes(b ^ 0xFF for b in good[half:])


def build(shape: Shape, policy_cls: type) -> Run:
    telemetry = Telemetry(mode="trace") if shape.trace else None
    with use(telemetry or NULL_TELEMETRY):  # the engine binds it when built
        scenario = build_tree_scenario(
            scale_factor=0.03,
            attack_kind="cbr",
            attack_rate_mbps=shape.attack_rate_mbps,
            seed=shape.seed,
            start_spread_seconds=0.5,
        )
    engine, topology = scenario.engine, scenario.topology
    cfg_args = dict(FAST, **BACKENDS[shape.backend])
    if shape.path_budget is not None:
        name = (
            "sketch_hot_paths" if shape.backend == "sketch"
            else "max_tracked_paths"
        )
        cfg_args[name] = shape.path_budget
    cfg = FLocConfig(
        capability_checks=shape.capability_checks,
        preferential_drop=shape.preferential_drop,
        **cfg_args,
    )
    rate = scenario.units.mbps_to_pkts_per_tick(2.0)
    leaf_of_as = {asn: leaf for leaf, asn in scenario.as_of_leaf.items()}
    extras = [("churn", spec) for spec in shape.churn]
    extras += [("forged", kind) for kind in shape.forged]
    for i, (what, spec) in enumerate(extras):
        pid = scenario.attack_path_ids[i % len(scenario.attack_path_ids)]
        host = f"x_{i}"
        topology.add_duplex_link(host, leaf_of_as[pid[0]], capacity=None)
        flow = engine.open_flow(host, scenario.servers[0], pid, is_attack=True)
        if what == "churn":
            interval, rehandshake = spec
            source: Any = PathChurnFloodSource(
                flow, rate, churn_interval=interval, id_space=40,
                rehandshake=rehandshake, start_tick=i % 7,
            )
        else:
            source = CbrSource(flow, rate, start_tick=i % 7, handshake=False)
            source.capability = forged_capability(spec, cfg, flow)
        engine.add_source(source)
    link = topology.link(ROOT, DST_HUB)
    if shape.buffer is not None:
        link.buffer = shape.buffer
    policy = policy_cls(cfg)
    scenario.attach_policy(policy)
    engine.run(0)  # attaches the policy
    if policy.drop_filter is not None:
        # the router's own filter is 4 x 2^20 cells, 100 MB of arrays to
        # image every tick; the same code at 2^10, where units also collide
        full = policy.drop_filter
        policy.drop_filter = DropRecordFilter(
            m=full.m, bits=10, k_bits=full.k_bits,
            probabilistic_update=full.probabilistic_update, rng=full._rng,
        )
    saved: Dict[str, Any] = {}

    def events(eng: Any, tick: int) -> None:
        for at, what in shape.events:
            if at != tick:
                continue
            if what == "flip-checks":
                policy.cfg.capability_checks = not policy.cfg.capability_checks
            elif what == "restart":
                policy.restart(tick)
            elif what == "corrupt":
                policy.corrupt_state(0.5, random.Random(at))
            elif what == "jitter":
                policy.jitter_clock(at % 11)
            elif what == "snapshot":
                saved["snap"] = policy.snapshot()
            elif "snap" in saved:
                policy.restore(saved["snap"])

    engine.add_tick_hook(events)
    return Run(engine, policy, link, telemetry)


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------
_PLAIN = frozenset({int, float, str, bool, bytes, type(None)})


def freeze(obj: Any) -> Any:
    """A plain, order-preserving, comparable image of router state."""
    kind = type(obj)
    if kind in _PLAIN:
        return obj
    if kind is tuple or kind is list or kind is deque:
        return [v if type(v) in _PLAIN else freeze(v) for v in obj]
    if kind is dict or kind is OrderedDict:
        return [
            (
                k if type(k) in _PLAIN else freeze(k),
                v if type(v) in _PLAIN else freeze(v),
            )
            for k, v in obj.items()
        ]
    if isinstance(obj, random.Random):
        return obj.getstate()
    if isinstance(obj, np.ndarray):
        return (str(obj.dtype), obj.shape, obj.tobytes())
    if isinstance(obj, (bytearray, array.array)):
        return bytes(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(map(repr, obj))
    if isinstance(obj, np.generic):
        return obj.item()
    names = list(getattr(obj, "__dict__", ()))
    for klass in kind.__mro__:
        names.extend(getattr(klass, "__slots__", ()))
    assert names, f"cannot freeze {kind.__name__}"
    return [
        (name, freeze(getattr(obj, name))) for name in names if hasattr(obj, name)
    ]


def ids(pkts: Any) -> List[Tuple[int, int, int]]:
    return [(p.flow_id, p.kind, p.seq) for p in pkts]


def image(run: Run) -> Dict[str, Any]:
    policy, engine, link = run.policy, run.engine, run.link
    out = {
        name: freeze(getattr(policy, name, None)) for name in SNAPSHOT_ATTRS
    }
    out["pending"] = policy.pending_drop_cause()
    out["memo"] = freeze(policy.issuer._flows)
    out["census"] = policy.state_census()
    out["link"] = (
        link.serviced_total, link.dropped_total, link.credit, ids(link.queue)
    )
    out["engine"] = (
        engine.tick, engine.packets_emitted, engine.packets_delivered,
        engine._interleave_rng.getstate(),
    )
    if run.telemetry is not None:
        log = run.telemetry.trace
        fresh = log.emitted_total - run.seen_events
        run.seen_events = log.emitted_total
        out["events"] = [
            e.to_dict() for e in itertools.islice(log, len(log) - fresh, None)
        ]
        out["drop_causes"] = run.telemetry.drop_provenance()
    return out


def assert_equivalent(
    shape: Shape, ticks: int, new_cls: type = FLocPolicy
) -> Tuple[Run, Run]:
    new, old = build(shape, new_cls), build(shape, OraclePolicy)
    for tick in range(ticks):
        new.engine.run(1)
        old.engine.run(1)
        got, want = image(new), image(old)
        for key in want:
            assert got[key] == want[key], f"{key} diverged at tick {tick}"
    return new, old


churn_specs = st.tuples(st.sampled_from([1, 3, 20]), st.booleans())
event_specs = st.tuples(
    st.integers(min_value=5, max_value=230), st.sampled_from(EVENTS)
)
shapes = st.builds(
    Shape,
    backend=st.sampled_from(sorted(BACKENDS)),
    path_budget=st.sampled_from([None, None, 1, 5, 20]),
    capability_checks=st.booleans(),
    preferential_drop=st.booleans(),
    buffer=st.sampled_from([None, None, 6, 20]),
    attack_rate_mbps=st.sampled_from([2.0, 2.0, 12.0]),
    churn=st.lists(churn_specs, max_size=4).map(tuple),
    forged=st.lists(st.sampled_from(FORGERIES), max_size=3).map(tuple),
    events=st.lists(event_specs, max_size=4).map(tuple),
    trace=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)


def shape(**overrides: Any) -> Shape:
    base = dict(
        backend="exact", path_budget=None, capability_checks=True,
        preferential_drop=True, buffer=None, attack_rate_mbps=2.0,
        churn=(), forged=(), events=(), trace=False, seed=3,
    )
    base.update(overrides)
    return Shape(**base)


TICKS = 240


class TestAdmissionEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(shape=shapes)
    # the shapes every run of the suite must see, whatever hypothesis draws:
    # conviction, aggregation, blocks, preferential/token/random drops
    @example(shape=shape(trace=True))
    # block-rate bots, and the same without Eq. (IV.5)
    @example(shape=shape(attack_rate_mbps=12.0, trace=True))
    @example(shape=shape(attack_rate_mbps=12.0, preferential_drop=False))
    # the Section V-B drop filter in place of the exact tracker
    @example(shape=shape(backend="filter", attack_rate_mbps=12.0, seed=5))
    # a 5-path sketch router under churn: valid, stale and SYN-only bots
    @example(
        shape=shape(
            backend="sketch", path_budget=5, trace=True,
            churn=((20, True), (1, False), (1, True), (3, True)),
        )
    )
    # a budget of one: every other packet evicts, drops interleave with
    # path_evict events inside a tick
    @example(shape=shape(path_budget=1, churn=((3, True),), trace=True))
    # a 6-packet buffer and every kind of forgery: overflow drops follow
    # policy drops in one tick
    @example(shape=shape(buffer=6, forged=FORGERIES, trace=True))
    # a restart with its warm-up branch, then partial state loss
    @example(
        shape=shape(
            events=((60, "jitter"), (90, "restart"), (150, "corrupt")),
            trace=True,
        )
    )
    @example(
        shape=shape(
            backend="sketch", path_budget=20, churn=((20, True), (3, False)),
            events=((80, "snapshot"), (120, "restart"), (200, "restore")),
        )
    )
    # capability checks off, switched on mid-run with forged traffic live
    @example(
        shape=shape(
            capability_checks=False, forged=("none", "zeros"),
            events=((50, "snapshot"), (100, "flip-checks"), (170, "restore")),
        )
    )
    def test_same_router_after_every_tick(self, shape: Shape) -> None:
        assert_equivalent(shape, TICKS)

    def test_the_pinned_shapes_reach_every_drop_cause(self) -> None:
        """The examples above are only worth pinning while they exercise
        the branches they are named for."""
        causes: Dict[str, int] = {}
        evictions = warmup_ticks = 0
        for sh in (
            shape(attack_rate_mbps=12.0),
            shape(buffer=6, forged=FORGERIES),
            shape(path_budget=1, churn=((3, True),)),
            shape(events=((90, "restart"),)),
        ):
            run = build(sh, FLocPolicy)
            for _ in range(TICKS):
                run.engine.run(1)
                warmup_ticks += run.policy.in_warmup
            for cause, count in run.policy.drop_stats.items():
                causes[cause] = causes.get(cause, 0) + count
            evictions += run.policy.eviction_stats["memory-pressure"]
        assert all(count > 0 for count in causes.values()), causes
        assert evictions > 0 and warmup_ticks > 0

    def test_the_suite_bites(self) -> None:
        """One draw too many from the queue manager's stream, taken only
        when a random-threshold drop happens: the decision streams agree
        until then, and the comparison must name the tick and the state."""

        class ExtraDraw(FLocPolicy):
            def admit(self, pkt: Packet, tick: int) -> bool:
                ok = super().admit(pkt, tick)
                if not ok and self.pending_drop_cause() == "random":
                    self.qm.random_drop(0)
                return ok

        with pytest.raises(AssertionError, match=r"qm diverged at tick [1-9]"):
            assert_equivalent(shape(), TICKS, new_cls=ExtraDraw)
