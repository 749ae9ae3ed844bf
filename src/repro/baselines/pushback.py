"""Pushback: aggregate-based congestion control (Mahajan et al. 2002).

The congested router periodically checks its drop rate.  When it exceeds
a trigger, the router identifies the *aggregates* responsible for most of
the traffic — here, as in the original work, an aggregate is defined by a
traffic "locale": we use the origin AS of the domain-path identifier —
and installs rate limiters on the worst offenders so the post-limit
arrival rate matches the link's comfort level.  Limits are refreshed every
interval and released once an aggregate behaves (or congestion ends).

Optionally, limits are *pushed back*: contribution-proportional limiters
are installed one hop upstream (on the links feeding the congested
router), which is where the original scheme drops traffic early.  In the
single-bottleneck scenarios of the paper's evaluation this changes where,
not whether, packets die, so it defaults to off.

The paper's critique that this class of defense cannot avoid "collateral
damage" inside attack aggregates is structural: the limiter drops
uniformly within an aggregate, legitimate flows included — nothing here
distinguishes them.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from ..net.packet import DATA, Packet
from ..net.policy import LinkPolicy
from .red import RedPolicy

#: interval drop rate above which the link counts as congested
DROP_RATE_TRIGGER = 0.10
#: share of capacity the limited arrival rate is brought down to
TARGET_UTILIZATION = 0.95
#: most aggregates limited at once
MAX_AGGREGATES = 8
#: well-behaved intervals after which an aggregate's limiter is released
RELEASE_INTERVALS = 5


class _RateLimiter:
    """Leaky-bucket limiter for one aggregate."""

    __slots__ = ("rate", "tokens", "idle_intervals")

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.tokens = rate
        self.idle_intervals = 0

    def on_tick(self) -> None:
        self.tokens = min(self.rate * 2.0, self.tokens + self.rate)

    def allow(self) -> bool:
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class PushbackPolicy(LinkPolicy):
    """Aggregate congestion control with optional upstream pushback."""

    def __init__(
        self, interval_ticks: int = 100, propagate: bool = False
    ) -> None:
        self.interval_ticks = interval_ticks
        self.propagate = propagate
        self.queue = RedPolicy()
        self.limiters: Dict[Hashable, _RateLimiter] = {}
        self._arrivals: Dict[Hashable, int] = {}
        self._interval_drops = 0
        self._interval_serviced = 0
        self._next_interval: Optional[int] = None
        self.limiter_drops = 0
        self._upstream: Dict = {}

    # ------------------------------------------------------------------
    @staticmethod
    def aggregate_of(pkt: Packet) -> Hashable:
        """Aggregates are keyed by the origin domain of the path."""
        return pkt.path_id[0] if pkt.path_id else pkt.src_addr

    def attach(self, link, engine) -> None:
        super().attach(link, engine)
        self.queue.attach(link, engine)
        self.capacity = link.capacity if link.capacity is not None else float("inf")

    # ------------------------------------------------------------------
    def on_tick(self, tick: int) -> None:
        self.queue.on_tick(tick)
        for limiter in self.limiters.values():
            limiter.on_tick()
        if self._next_interval is None:
            self._next_interval = tick + self.interval_ticks
        if tick >= self._next_interval:
            self._adapt(tick)
            self._next_interval = tick + self.interval_ticks

    def _adapt(self, tick: int) -> None:
        total_arr = sum(self._arrivals.values())
        drops = self._interval_drops
        serviced = max(1, self._interval_serviced)
        drop_rate = drops / (drops + serviced)
        congested = drop_rate > DROP_RATE_TRIGGER

        if congested and total_arr > 0:
            # identify: heaviest aggregates whose removal restores the
            # target utilization
            target_rate = self.capacity * TARGET_UTILIZATION
            arrival_rate = total_arr / self.interval_ticks
            excess = arrival_rate - target_rate
            by_load = sorted(
                self._arrivals.items(), key=lambda kv: kv[1], reverse=True
            )
            chosen = by_load[:MAX_AGGREGATES]
            chosen_rate = sum(v for _, v in chosen) / self.interval_ticks
            if chosen and excess > 0:
                # each chosen aggregate is limited to its share of what
                # remains after removing the excess
                allowed = max(0.0, chosen_rate - excess)
                per_agg = allowed / len(chosen)
                for agg, _count in chosen:
                    limiter = self.limiters.get(agg)
                    if limiter is None:
                        self.limiters[agg] = _RateLimiter(max(0.01, per_agg))
                    else:
                        limiter.rate = max(0.01, per_agg)
                        limiter.idle_intervals = 0
        # release well-behaved limiters
        stale = []
        for agg, limiter in self.limiters.items():
            arrivals = self._arrivals.get(agg, 0) / self.interval_ticks
            if not congested or arrivals < limiter.rate * 0.9:
                limiter.idle_intervals += 1
                if limiter.idle_intervals >= RELEASE_INTERVALS:
                    stale.append(agg)
            else:
                limiter.idle_intervals = 0
        for agg in stale:
            del self.limiters[agg]

        self._arrivals.clear()
        self._interval_drops = 0
        self._interval_serviced = 0
        if self.propagate:
            self._propagate_upstream()

    def _propagate_upstream(self) -> None:
        """Install contribution-proportional limiters one hop upstream.

        Kept minimal: upstream links inherit this policy's limiter table
        by reference, so drops happen before the bottleneck queue.
        """
        for node in self.engine.topology.predecessors(self.link.src):
            up = self.engine.topology.link(node, self.link.src)
            if up.policy is None:
                up.policy = _UpstreamLimiter(self)
                up.policy.attach(up, self.engine)

    # ------------------------------------------------------------------
    def admit(self, pkt: Packet, tick: int) -> bool:
        if pkt.kind != DATA:
            return True
        agg = self.aggregate_of(pkt)
        self._arrivals[agg] = self._arrivals.get(agg, 0) + 1
        limiter = self.limiters.get(agg)
        if limiter is not None and not limiter.allow():
            self.limiter_drops += 1
            self._interval_drops += 1
            return False
        admitted = self.queue.admit(pkt, tick)
        if admitted:
            self._interval_serviced += 1
        else:
            self._interval_drops += 1
        return admitted


class _UpstreamLimiter(LinkPolicy):
    """Applies the bottleneck's limiter table on an upstream link."""

    def __init__(self, owner: PushbackPolicy) -> None:
        self.owner = owner

    def admit(self, pkt: Packet, tick: int) -> bool:
        if pkt.kind != DATA:
            return True
        limiter = self.owner.limiters.get(PushbackPolicy.aggregate_of(pkt))
        if limiter is not None and not limiter.allow():
            self.owner.limiter_drops += 1
            return False
        return True
