"""RED-PD: RED with Preferential Dropping (Mahajan, Floyd, Wetherall 2001).

A per-flow flooding defense built entirely from the router's *drop
history* (so, like FLoc, it keeps no state for conformant flows):

* recent drops are kept in ``HISTORY_LISTS`` consecutive time intervals;
* a flow appearing in at least ``IDENTIFY_LISTS`` of them is *monitored*;
* monitored flows pass a pre-filter that drops their packets with a
  per-flow probability ``p_f`` (first ``INITIAL_DROP_PROB``) before they
  reach the RED queue;
* each interval, ``p_f`` rises by ``PROB_STEP`` (up to
  ``MAX_DROP_PROB``) while the flow keeps taking RED drops (still
  sending above the target rate) and falls by ``PROB_STEP`` when its
  pre-filter sees traffic but the flow stays drop-free; flows whose
  ``p_f`` decays to zero are released.

This is the paper's representative *per-flow* defense (Section VI): it
protects legitimate flows inside attack aggregates but — because it aims
at per-flow fairness among whatever flows exist — it cannot defend against
attacks made of *many individually well-behaved* flows (high-population
TCP or covert attacks), and very-high-rate floods still squeeze
legitimate paths.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Optional

from ..net.packet import DATA, Packet
from .red import RedPolicy

#: drop-history intervals kept
HISTORY_LISTS = 5
#: intervals of the history a flow must appear in to be monitored
IDENTIFY_LISTS = 3
#: a newly monitored flow's pre-filter drop probability
INITIAL_DROP_PROB = 0.05
#: per-interval change of a monitored flow's drop probability
PROB_STEP = 0.05
#: cap on the pre-filter drop probability
MAX_DROP_PROB = 0.95


class _MonitoredFlow:
    __slots__ = ("drop_prob", "drops_this_interval", "arrivals_this_interval")

    def __init__(self, drop_prob: float) -> None:
        self.drop_prob = drop_prob
        self.drops_this_interval = 0
        self.arrivals_this_interval = 0


class RedPdPolicy(RedPolicy):
    """RED plus drop-history-driven per-flow preferential dropping."""

    def __init__(self, interval_ticks: int = 50) -> None:
        super().__init__()
        self.interval_ticks = interval_ticks
        self._history: deque = deque(maxlen=HISTORY_LISTS)  # deque of sets
        self._current_list: set = set()
        self.monitored: Dict[Hashable, _MonitoredFlow] = {}
        self._next_interval: Optional[int] = None
        self.prefilter_drops = 0

    # ------------------------------------------------------------------
    def on_tick(self, tick: int) -> None:
        if self._next_interval is None:
            self._next_interval = tick + self.interval_ticks
        if tick >= self._next_interval:
            self._rotate(tick)
            self._next_interval = tick + self.interval_ticks

    def _rotate(self, tick: int) -> None:
        self._history.append(self._current_list)
        self._current_list = set()
        # identification: flows present in >= IDENTIFY_LISTS of the history
        counts: Dict[Hashable, int] = {}
        for interval_set in self._history:
            for key in interval_set:
                counts[key] = counts.get(key, 0) + 1
        for key, hits in counts.items():
            if hits >= IDENTIFY_LISTS and key not in self.monitored:
                self.monitored[key] = _MonitoredFlow(INITIAL_DROP_PROB)
        # adaptation and release
        released = []
        for key, mon in self.monitored.items():
            if mon.drops_this_interval > 0:
                mon.drop_prob = min(MAX_DROP_PROB, mon.drop_prob + PROB_STEP)
            elif mon.arrivals_this_interval > 0:
                mon.drop_prob -= PROB_STEP
                if mon.drop_prob <= 0.0:
                    released.append(key)
            mon.drops_this_interval = 0
            mon.arrivals_this_interval = 0
        for key in released:
            del self.monitored[key]

    # ------------------------------------------------------------------
    def _flow_key(self, pkt: Packet) -> Hashable:
        return pkt.flow_id

    def admit(self, pkt: Packet, tick: int) -> bool:
        if pkt.kind != DATA:
            return True
        key = self._flow_key(pkt)
        mon = self.monitored.get(key)
        if mon is not None:
            mon.arrivals_this_interval += 1
            if self._rng.random() < mon.drop_prob:
                self.prefilter_drops += 1
                return False
        admitted = super().admit(pkt, tick)
        if not admitted:
            self._current_list.add(key)
            if mon is not None:
                mon.drops_this_interval += 1
        return admitted
