"""Scalable drop-record store (paper Section V-B).

High-speed routers cannot keep exact per-flow state for millions of flows,
but they do not need to: only *dropped* packets carry signal, and during
congestion the drop rate is orders of magnitude below the service rate
(paper Fig. 2).  FLoc therefore records drops in a counting-Bloom-filter
of ``m`` arrays with ``2^bits`` entries each.  Every entry holds three
fields (Section V-B.2):

* ``t_s`` — the record's *sequence number*: congestion epochs (one epoch =
  ``(W/2) * RTT``) elapsed since the record was created,
* ``t_l`` — last-update time (tick granularity),
* ``d``  — the number of *extra* packet drops.

On every recorded drop the counters are increased, and they decay by one
per elapsed epoch — a legitimate flow (one drop per epoch) hovers near
zero, while a flow sending ``alpha`` times its fair share accumulates
``d ~ (alpha - 1)`` per epoch, so ``d / t_s`` approximates the flow's
excess send rate.  For high-rate flows ``t_s`` is advanced whenever
``d > 2^k_bits * t_s``, extending the measurable range, and flows with
``d >= 2^k_bits * t_s`` are blocked outright (Section V-B.3).

The preferential drop ratio (Eq. V.1) is ``P_pd = d / (t_s + d - 1)``.

Two scalability refinements are implemented faithfully:

* **probabilistic filter update** (Section V-B.4): a flow estimated at
  ``r`` times its fair bandwidth updates memory on each drop only with
  probability ``1/r``, adding ``r`` — same expectation, ``r`` times fewer
  memory writes;
* **probabilistic array selection** (Section V-B.5): flows of highly
  populated attack domains update only ``k`` of the ``m`` arrays (with
  probability ``k/m`` and value ``m/k``), keeping the false-positive ratio
  of *legitimate* flows below a target even with millions of attack flows.
"""

from __future__ import annotations

import math
import random
from typing import Hashable, Optional, Tuple

import numpy as np

from ..sketch.cms import sketch_indices as _indices


class DropRecordFilter:
    """Counting-Bloom-filter of drop records.

    Parameters
    ----------
    m:
        Number of hash arrays (paper example: 4).
    bits:
        log2 of each array's length (paper example: 24; tests use less).
    k_bits:
        Bits for the per-epoch drop count — the rate cap is ``2^k_bits``
        drops per epoch before ``t_s`` advances (paper example: 2).
    probabilistic_update:
        Enable the Section V-B.4 memory-write reduction.
    """

    def __init__(
        self,
        m: int = 4,
        bits: int = 20,
        k_bits: int = 2,
        probabilistic_update: bool = False,
        rng: Optional[random.Random] = None,
    ) -> None:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if bits < 1 or bits > 30:
            raise ValueError(f"bits must be in [1, 30], got {bits}")
        self.m = m
        self.bits = bits
        self.size = 1 << bits
        self.k_bits = k_bits
        self.rate_cap = float(1 << k_bits)
        self.probabilistic_update = probabilistic_update
        self._rng = rng or random.Random(0xF10C)
        self._d = np.zeros((m, self.size), dtype=np.float64)
        self._ts = np.ones((m, self.size), dtype=np.float64)
        self._tl = np.full((m, self.size), -1, dtype=np.int64)
        self.memory_updates = 0  # actual writes (for the ablation bench)
        self.drops_seen = 0

    # ------------------------------------------------------------------
    # core update
    # ------------------------------------------------------------------
    def _decayed(
        self, arr: int, idx: int, tick: int, epoch_ticks: float
    ) -> Tuple[float, float, bool]:
        """Effective (d, t_s) of one entry after epoch decay, read-only."""
        tl = self._tl[arr, idx]
        d = self._d[arr, idx]
        ts = self._ts[arr, idx]
        if tl < 0:
            return 0.0, 1.0, False
        elapsed = max(0.0, (tick - tl) / max(epoch_ticks, 1e-9))
        return max(0.0, d - elapsed), ts + elapsed, True

    def record_drop(
        self,
        key: Hashable,
        tick: int,
        epoch_ticks: float,
        attack_domain: bool = False,
        k_arrays: Optional[int] = None,
    ) -> None:
        """Record one drop of accounting unit ``key`` at ``tick``.

        ``epoch_ticks`` is the flow's congestion-epoch length
        ``(W/2) * RTT`` in ticks.  Attack-domain flows update only
        ``k_arrays`` of the ``m`` arrays (Section V-B.5).
        """
        self.drops_seen += 1
        increment = 1.0
        if self.probabilistic_update:
            excess = self.excess_ratio(key, tick, epoch_ticks)
            rate = max(1.0, excess)
            if self._rng.random() >= 1.0 / rate:
                return
            increment = rate
        arrays = range(self.m)
        if attack_domain and k_arrays is not None and k_arrays < self.m:
            if self._rng.random() >= k_arrays / self.m:
                return
            increment *= self.m / k_arrays
            arrays = self._rng.sample(range(self.m), k_arrays)
        idxs = _indices(key, self.m, self.size)
        for arr in arrays:
            idx = idxs[arr]
            d, ts, existed = self._decayed(arr, idx, tick, epoch_ticks)
            if not existed:
                d, ts = 0.0, 1.0
            d += increment
            if d > self.rate_cap * ts:
                ts += 1.0
            self._d[arr, idx] = d
            self._ts[arr, idx] = ts
            self._tl[arr, idx] = tick
            self.memory_updates += 1

    # ------------------------------------------------------------------
    # queries (conservative: min across arrays)
    # ------------------------------------------------------------------
    def _min_entry(
        self, key: Hashable, tick: int, epoch_ticks: float
    ) -> Tuple[float, float]:
        idxs = _indices(key, self.m, self.size)
        best_d, best_ts = math.inf, 1.0
        for arr in range(self.m):
            d, ts, existed = self._decayed(arr, idxs[arr], tick, epoch_ticks)
            if not existed:
                return 0.0, 1.0
            if d < best_d:
                best_d, best_ts = d, ts
        return best_d, best_ts

    def excess_ratio(self, key: Hashable, tick: int, epoch_ticks: float) -> float:
        """``d / t_s``: estimated multiple of the fair send rate above 1."""
        d, ts = self._min_entry(key, tick, epoch_ticks)
        return d / max(ts, 1.0)

    def preferential_drop_ratio(
        self, key: Hashable, tick: int, epoch_ticks: float
    ) -> float:
        """Eq. (V.1): ``P_pd = d / (t_s + d - 1)``, clipped to [0, 1]."""
        d, ts = self._min_entry(key, tick, epoch_ticks)
        if d <= 0.0:
            return 0.0
        denom = ts + d - 1.0
        if denom <= 0.0:
            return 1.0
        return min(1.0, d / denom)

    def should_block(self, key: Hashable, tick: int, epoch_ticks: float) -> bool:
        """True when ``d >= 2^k_bits * t_s`` (Section V-B.3 blocking)."""
        d, ts = self._min_entry(key, tick, epoch_ticks)
        return d >= self.rate_cap * max(ts, 1.0)

    # ------------------------------------------------------------------
    # dimensioning helpers (Section V-B.5)
    # ------------------------------------------------------------------
    @staticmethod
    def false_positive_ratio(n_flows: float, m: int, bits: int) -> float:
        """``(1 - e^{-n / 2^bits})^m`` — all flows update all arrays."""
        return (1.0 - math.exp(-n_flows / float(1 << bits))) ** m

    @staticmethod
    def false_positive_with_selection(
        n_total: float, n_attack: float, k: int, m: int, bits: int
    ) -> float:
        """Legitimate-flow false-positive ratio when attack-domain flows
        update only ``k`` of ``m`` arrays: effective load is
        ``n - n_A + n_A * k / m`` per array."""
        effective = n_total - n_attack + n_attack * k / m
        return (1.0 - math.exp(-effective / float(1 << bits))) ** m

    @staticmethod
    def select_k(
        n_total: float, n_attack: float, n_threshold: float, m: int
    ) -> int:
        """Largest ``k <= m`` keeping the effective load at or below
        ``n_threshold`` (Section V-B.5); returns 1 if even ``k=1`` cannot."""
        for k in range(m, 0, -1):
            if n_total - n_attack + n_attack * k / m <= n_threshold:
                return k
        return 1

    @staticmethod
    def payload_bytes(m: int, bits: int) -> int:
        """Payload footprint of an ``m`` x ``2^bits`` filter, from its
        dimensions alone (no arrays are built)."""
        # 3 fields; the paper budgets 2 bytes per field per entry.
        return m * (1 << bits) * 3 * 2

    @property
    def memory_bytes(self) -> int:
        """Approximate memory footprint of the filter's payload fields."""
        return self.payload_bytes(self.m, self.bits)
