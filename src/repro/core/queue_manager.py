"""Router buffer-queue management (paper Section V-A).

FLoc runs its FIFO queue in three modes derived from the current queue
length ``Q_curr``:

* **uncongested** (``Q_curr <= Q_min``): every packet is serviced
  regardless of token availability; short bursts are absorbed.  To stop
  attack paths from quietly consuming buffers in this mode, a path whose
  request rate ``lambda`` exceeds its allocation ``C`` is pushed into
  congested mode early, as soon as
  ``Q_curr > Q_min * min(1, C / lambda)`` (``FLocPolicy.admit`` makes
  this test inline, per packet).
* **congested** (``Q_min < Q_curr <= Q_max``): token buckets are active,
  but because FLoc deliberately *under*-estimates RTTs (and hence bucket
  parameters), a packet that finds no token is not dropped outright;
  instead a threshold ``Q_th`` is drawn uniformly from
  ``[Q_min, Q_max]`` and the packet is dropped only if
  ``Q_curr > Q_th`` — a random early drop that needs no RED-style
  calibration (paper footnote 8).
* **flooding** (``Q_curr > Q_max``): the strict token policy applies with
  the *base* bucket size ``N_Si`` (the increased size's burst allowance is
  withdrawn).

``Q_min`` is configured (20 % of the buffer in the paper's simulations);
``Q_max = Q_min + sum_i sqrt(n_i) * W_i`` — the buffer headroom needed so
partially-synchronised flows do not under-utilise the link.
"""

from __future__ import annotations

import enum
import math
import random
from typing import Dict, Optional

from ..errors import ConfigError
from .pathid import PathId


class QueueMode(enum.Enum):
    """Operating mode of the FLoc buffer queue."""

    UNCONGESTED = "uncongested"
    CONGESTED = "congested"
    FLOODING = "flooding"


class QueueManager:
    """Tracks ``Q_min`` / ``Q_max`` and answers mode/drop queries."""

    def __init__(
        self,
        buffer_size: int,
        q_min_fraction: float = 0.2,
        rng: Optional[random.Random] = None,
    ) -> None:
        if buffer_size < 2:
            raise ConfigError(f"buffer_size must be >= 2, got {buffer_size}")
        self.buffer_size = buffer_size
        self.q_min = max(1, int(buffer_size * q_min_fraction))
        self.q_max = max(self.q_min + 1, buffer_size // 2)
        self._rng = rng or random.Random(0xF10C)

    def update_q_max(self, per_path_windows: Dict[PathId, tuple]) -> None:
        """Recompute ``Q_max = Q_min + sum_i sqrt(n_i) W_i``.

        ``per_path_windows`` maps path id -> ``(n_flows, peak_window)``.
        The result is clamped into ``(Q_min, buffer_size]``.
        """
        headroom = 0.0
        for n_flows, window in per_path_windows.values():
            if n_flows > 0 and window > 0:
                headroom += math.sqrt(n_flows) * window
        q_max = self.q_min + int(headroom)
        self.q_max = min(self.buffer_size, max(self.q_min + 1, q_max))

    def mode(self, q_curr: int) -> QueueMode:
        """Mode for the current queue occupancy."""
        if q_curr <= self.q_min:
            return QueueMode.UNCONGESTED
        if q_curr <= self.q_max:
            return QueueMode.CONGESTED
        return QueueMode.FLOODING

    def random_drop(self, q_curr: int) -> bool:
        """Congested-mode neutral drop: ``Q_th ~ U[Q_min, Q_max]``."""
        q_th = self._rng.uniform(self.q_min, self.q_max)
        return q_curr > q_th
