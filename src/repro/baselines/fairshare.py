"""Per-flow fairness (FF) — the Internet-scale comparison strategy.

Paper Section VII-C describes the scheme exactly: "legitimate TCP flows
are allocated at least as much bandwidth as that of attack flows: all
packets of legitimate flows are assigned a high priority yet those of
attack flows are assigned a high priority up to their fair bandwidth; and
routers process the high priority packets ahead of other normal priority
(attack) packets".

This is an *oracle* baseline — it knows ground-truth flow legitimacy from
the engine's flow table — and represents the ideal outcome of any perfect
per-flow fair-sharing defense.  Its failure mode is structural and is the
point of the comparison: with enough attack flows, per-flow fairness
hands most of the link to the attacker.

Within our FIFO engine, priority service is realised at admission: high
priority packets are admitted up to the buffer, normal priority packets
are admitted only while the queue is nearly empty (the link is "idle").
"""

from __future__ import annotations

from typing import Dict, Optional

from ..net.packet import DATA, Packet
from ..net.policy import LinkPolicy

#: queue occupancy (fraction of the buffer) below which the link counts
#: as idle, so normal priority packets are serviced too
IDLE_FRACTION = 0.05


class FairSharePolicy(LinkPolicy):
    """Oracle per-flow fairness with priority for legitimate traffic."""

    def __init__(self) -> None:
        #: per-flow fair rate in packets/tick, derived at attach time
        #: from the engine flow table
        self.fair_rate: Optional[float] = None
        self._credits: Dict[int, float] = {}
        self.low_priority_drops = 0

    def attach(self, link, engine) -> None:
        super().attach(link, engine)
        self._buffer = link.buffer if link.buffer is not None else 1000
        n_flows = max(1, len(engine.flows))
        capacity = link.capacity if link.capacity is not None else 1.0
        self.fair_rate = capacity / n_flows

    def on_tick(self, tick: int) -> None:
        # replenish attack flows' high-priority credit at the fair rate
        for flow_id in self._credits:
            credit = self._credits[flow_id] + self.fair_rate
            self._credits[flow_id] = min(credit, 2.0 * max(1.0, self.fair_rate))

    def admit(self, pkt: Packet, tick: int) -> bool:
        if pkt.kind != DATA:
            return True
        flow = self.engine.flows.get(pkt.flow_id)
        is_attack = flow.is_attack if flow is not None else False
        if not is_attack:
            return True  # high priority, buffer-bounded by the engine
        credit = self._credits.get(pkt.flow_id)
        if credit is None:
            credit = max(1.0, self.fair_rate)
        if credit >= 1.0:
            self._credits[pkt.flow_id] = credit - 1.0
            return True  # within fair share: high priority
        self._credits[pkt.flow_id] = credit
        # normal priority: serviced only when the link is close to idle
        if len(self.link.queue) <= IDLE_FRACTION * self._buffer:
            return True
        self.low_priority_drops += 1
        return False
