"""CDF-PSP: history-based bandwidth isolation (related-work baseline).

CDF-PSP (paper Section II) "isolates the bandwidth of 'high priority'
flow aggregates, which conform to historical traffic data, from that of
non-conformant 'low-priority' traffic, and limits collateral damage by
allocating bandwidth proportionally to all high priority traffic first".

Implementation: during an initial *training window* (assumed attack-free,
as the scheme assumes representative history) the router learns each
aggregate's arrival-rate profile (EWMA by origin domain).  Afterwards,
each aggregate's packets are high priority up to its historical rate and
low priority beyond it; low-priority packets are serviced only when the
link is nearly idle.

The paper's critique, which the comparison benchmarks demonstrate:

* legitimate flows that exceed their path's history get low priority
  (bursty-but-honest users are punished), and
* attack flows on historically high-rate paths inherit high allocations
  (history is not legitimacy).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from ..net.packet import DATA, Packet
from ..net.policy import LinkPolicy

#: EWMA weight folding an interval's rate into the history
HISTORY_WEIGHT = 0.05
#: tolerated burst factor above the historical rate
HEADROOM = 1.2
#: queue occupancy (fraction of the buffer) below which low-priority
#: packets are serviced
IDLE_FRACTION = 0.05
#: ticks per rate-measurement interval
INTERVAL_TICKS = 20


class CdfPspPolicy(LinkPolicy):
    """History-conformance priority admission."""

    def __init__(self, training_ticks: int = 300) -> None:
        #: length of the attack-free learning phase
        self.training_ticks = training_ticks
        self.history: Dict[Hashable, float] = {}
        self._interval_counts: Dict[Hashable, int] = {}
        self._credits: Dict[Hashable, float] = {}
        self._next_interval: Optional[int] = None
        self.low_priority_drops = 0

    @staticmethod
    def aggregate_of(pkt: Packet) -> Hashable:
        """Aggregates are traffic locales: the origin domain."""
        return pkt.path_id[0] if pkt.path_id else pkt.src_addr

    def attach(self, link, engine) -> None:
        super().attach(link, engine)
        self._buffer = link.buffer if link.buffer is not None else 1000

    def on_tick(self, tick: int) -> None:
        if self._next_interval is None:
            self._next_interval = tick + INTERVAL_TICKS
        if tick >= self._next_interval:
            self._rollover(tick)
            self._next_interval = tick + INTERVAL_TICKS
        # replenish high-priority credit at the learned historical rate
        if tick > self.training_ticks:
            for agg, rate in self.history.items():
                allowance = rate * HEADROOM
                credit = self._credits.get(agg, allowance) + allowance
                self._credits[agg] = min(credit, 2.0 * max(1.0, allowance))

    def _rollover(self, tick: int) -> None:
        learning = tick <= self.training_ticks
        # history is frozen while the link is congested — folding attack
        # load into the profile would launder the attack into "history"
        congested = len(self.link.queue) > 0.3 * self._buffer
        for agg, count in self._interval_counts.items():
            rate = count / INTERVAL_TICKS
            if learning:
                previous = self.history.get(agg)
                if previous is None:
                    self.history[agg] = rate
                else:
                    self.history[agg] = previous + 0.5 * (rate - previous)
            elif not congested:
                previous = self.history.get(agg, 0.0)
                self.history[agg] = previous + HISTORY_WEIGHT * (
                    rate - previous
                )
        self._interval_counts.clear()

    def admit(self, pkt: Packet, tick: int) -> bool:
        if pkt.kind != DATA:
            return True
        agg = self.aggregate_of(pkt)
        counts = self._interval_counts
        counts[agg] = counts.get(agg, 0) + 1
        if tick <= self.training_ticks:
            return True  # learning phase: everything is history
        credit = self._credits.get(agg)
        if credit is None:
            # unseen aggregate: no history at all -> low priority
            credit = 0.0
        if credit >= 1.0:
            self._credits[agg] = credit - 1.0
            return True
        # non-conformant: serviced only when the link is near idle
        if len(self.link.queue) <= IDLE_FRACTION * self._buffer:
            return True
        self.low_priority_drops += 1
        return False
