"""``FLocPolicy`` on a crafted state.

The router writes its per-packet rules out inline in ``admit`` (the
early-activation test, Eq. IV.4's MTD, Eq. IV.5's service probability,
the token take) and its per-interval ones in the refresh.  A unit test
that states one of those rules holds it to the code that runs: it
attaches a router to one link, authenticates a few units on one path,
sets the path, group, queue and drop records by hand, and reads the
decision the router makes.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Sequence

from repro.core.config import FLocConfig
from repro.core.router import FLocPolicy
from repro.net.engine import Engine
from repro.net.packet import DATA, SYN, Packet
from repro.net.topology import Topology

#: the one path every crafted unit sends on
PID = (1, 9)
ROUTE = ("r", "srv")


class _Probe(float):
    """Stands in for the router's uniform draw in Eq. IV.5: it records
    the service probability it is compared against and never refuses."""

    def __new__(cls, seen: List[float]) -> "_Probe":
        probe = super().__new__(cls, 0.0)
        probe.seen = seen
        return probe

    def __gt__(self, other: float) -> bool:
        self.seen.append(other)
        return False


class CraftedRouter:
    """A router on the ``r -> srv`` link whose units (one per source
    address) have each sent a SYN and one DATA packet at tick 0."""

    def __init__(
        self,
        sources: Sequence[str] = ("h",),
        buffer: int = 1000,
        capacity: float = 10.0,
        **config,
    ) -> None:
        topo = Topology()
        topo.add_duplex_link(*ROUTE, capacity=capacity, buffer=buffer)
        self.link = topo.link(*ROUTE)
        self.policy = FLocPolicy(FLocConfig(**config))
        self.policy.attach(self.link, Engine(topo, seed=1))
        self.flow_ids: Dict[str, int] = {}
        self.capabilities: Dict[str, bytes] = {}
        for flow_id, src in enumerate(sources):
            syn = Packet(flow_id, SYN, 0, PID, ROUTE, src, "srv", 0)
            assert self.policy.admit(syn, 0)
            self.flow_ids[src] = flow_id
            self.capabilities[src] = syn.capability
        for src in sources:
            assert self.policy.admit(self.packet(0, src), 0)
        self.state = self.policy.paths[PID]

    @property
    def group(self):
        return self.policy._group_state(PID, 0)

    def unit(self, src: str = "h"):
        """The accounting unit of ``src``'s flow."""
        return self.policy.issuer.account_key(src, "srv", PID)

    def packet(self, tick: int, src: str = "h") -> Packet:
        return Packet(
            self.flow_ids[src], DATA, tick, PID, ROUTE, src, "srv", tick,
            self.capabilities[src],
        )

    def set_queue(self, length: int) -> None:
        """Hold ``length`` packets in the target queue."""
        src = next(iter(self.flow_ids))
        self.link.queue.clear()
        self.link.queue.extend(self.packet(0, src) for _ in range(length))

    def draws_token(
        self, tick: int, q_curr: int, bandwidth: float, request_rate: float
    ) -> bool:
        """Whether a DATA packet arriving at ``tick`` on queue length
        ``q_curr`` meets the token bucket — the congested treatment —
        when its group holds ``bandwidth`` and its path's request rate is
        ``request_rate``."""
        self.group.bandwidth = bandwidth
        self.state.lambda_rate = request_rate
        self.set_queue(q_curr)
        bucket = self.group.bucket
        before = bucket.requests_total
        self.policy.admit(self.packet(tick), tick)
        return bucket.requests_total > before

    def service_probability(
        self, tick: int, drops: int, reference: float
    ) -> float:
        """The Eq. IV.5 service probability ``admit`` draws against for
        the identified attack unit of ``h`` with ``drops`` drops
        recorded at ``tick`` and reference MTD ``reference``."""
        unit = self.unit()
        self.state.attack_flows = {unit}
        self.group.measured_ref_mtd = reference
        for _ in range(drops):
            self.policy.tracker.record_drop(unit, tick)
        self.set_queue(self.policy.qm.q_min + 1)  # congested
        seen: List[float] = []
        self.policy._rng = SimpleNamespace(random=lambda: _Probe(seen))
        assert self.policy.admit(self.packet(tick), tick)
        (p_service,) = seen
        return p_service

    @property
    def mtd_window(self) -> int:
        """The span Eq. IV.4 counts a unit's drops over, in ticks."""
        return min(self.policy._mtd_window(self.group), self.policy.tracker.horizon)
