"""Random Early Detection (RED) queue management.

Classic RED (Floyd & Jacobson 1993): an EWMA of the queue length drives a
drop probability that rises linearly between ``min_th`` and ``max_th``;
the inter-drop spacing correction (``count``) makes drops roughly uniform.
This is the "gentle" variant: the probability ramps from ``MAX_P`` to 1
between ``max_th`` and ``2 * max_th`` instead of jumping to 1.

RED gives the paper's no-attack fairness reference (Fig. 7) — it
de-synchronises TCP flows and shares bandwidth reasonably — but it has no
notion of flow legitimacy, which is why it cannot defend against floods.
"""

from __future__ import annotations

import random
from typing import Optional

from ..net.packet import DATA, Packet
from ..net.policy import LinkPolicy

#: the drop probability at ``max_th``
MAX_P = 0.10
#: EWMA weight of the instantaneous queue length in the average
WEIGHT = 0.002


class RedPolicy(LinkPolicy):
    """Gentle RED admission control.

    The thresholds are fractions of the link buffer, set at attach time:
    ``min_th = 20 %``, ``max_th = 60 %``.
    """

    def __init__(self) -> None:
        self.min_th: Optional[float] = None
        self.max_th: Optional[float] = None
        self._rng: Optional[random.Random] = None
        self.avg = 0.0
        self._count = -1
        self.forced_drops = 0
        self.early_drops = 0

    def attach(self, link, engine) -> None:
        super().attach(link, engine)
        buffer = link.buffer if link.buffer is not None else 1000
        self.min_th = 0.2 * buffer
        self.max_th = 0.6 * buffer
        self._rng = engine.spawn_rng("red")

    def admit(self, pkt: Packet, tick: int) -> bool:
        if pkt.kind != DATA:
            return True
        q = len(self.link.queue)
        self.avg += WEIGHT * (q - self.avg)
        avg = self.avg
        if avg < self.min_th:
            self._count = -1
            return True
        if avg < self.max_th:
            self._count += 1
            p_b = MAX_P * (avg - self.min_th) / (self.max_th - self.min_th)
            denom = 1.0 - self._count * p_b
            p_a = p_b / denom if denom > 0 else 1.0
            if self._rng.random() < p_a:
                self._count = 0
                self.early_drops += 1
                return False
            return True
        if avg < 2.0 * self.max_th:
            self._count += 1
            p_b = MAX_P + (1.0 - MAX_P) * (avg - self.max_th) / self.max_th
            if self._rng.random() < p_b:
                self._count = 0
                self.forced_drops += 1
                return False
            return True
        self._count = 0
        self.forced_drops += 1
        return False
