"""Synthetic packet-trace generation (substitute for real traces).

The paper's design-motivation figures use measured Internet traces:

* Fig. 2 shows that, during normal operation, a link's packet *service*
  rate is much higher than its *drop* rate (which justifies acting on
  drops: drop-side state is small and cheap).
* Fig. 3 shows the packet-size distribution: control packets cluster at
  40 B, full-sized data packets at 1500 B, with a secondary mode around
  1300 B attributed to VPN tunnelling overhead.

Real traces are not redistributable, so this module synthesizes traces
with the same shape (documented substitution; see DESIGN.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class SizeMode:
    """One mode of the packet-size mixture."""

    size: int  # bytes
    weight: float  # mixture weight
    jitter: int = 0  # +/- uniform jitter in bytes


#: Default mixture reproducing the Fig. 3 shape: 40 B control packets,
#: 1500 B full-sized data, a 1300 B VPN-tunnelled mode, and a thin spread
#: of intermediate sizes.
DEFAULT_MODES: Tuple[SizeMode, ...] = (
    SizeMode(size=40, weight=0.38),
    SizeMode(size=1500, weight=0.46),
    SizeMode(size=1300, weight=0.10, jitter=20),
    SizeMode(size=576, weight=0.03, jitter=100),
    SizeMode(size=900, weight=0.03, jitter=250),
)


@dataclass
class PacketSizeDistribution:
    """Samples packet sizes from a mixture of modes.

    >>> dist = PacketSizeDistribution()
    >>> sizes = dist.sample(1000, random.Random(7))
    >>> 40 in sizes and 1500 in sizes
    True
    """

    modes: Sequence[SizeMode] = field(default_factory=lambda: DEFAULT_MODES)

    def __post_init__(self) -> None:
        total = sum(mode.weight for mode in self.modes)
        if total <= 0:
            raise ValueError("mixture weights must sum to a positive value")
        self._cumulative: List[Tuple[float, SizeMode]] = []
        acc = 0.0
        for mode in self.modes:
            acc += mode.weight / total
            self._cumulative.append((acc, mode))

    def sample_one(self, rng: random.Random) -> int:
        """Draw one packet size in bytes."""
        u = rng.random()
        for threshold, mode in self._cumulative:
            if u <= threshold:
                if mode.jitter:
                    return max(40, mode.size + rng.randint(-mode.jitter, mode.jitter))
                return mode.size
        return self._cumulative[-1][1].size

    def sample(self, n: int, rng: random.Random) -> List[int]:
        """Draw ``n`` packet sizes."""
        return [self.sample_one(rng) for _ in range(n)]

    def cdf(self, sizes: Sequence[int]) -> List[Tuple[int, float]]:
        """Empirical CDF points ``(size, fraction <= size)`` of a sample."""
        ordered = sorted(sizes)
        n = len(ordered)
        points: List[Tuple[int, float]] = []
        for index, size in enumerate(ordered, start=1):
            if points and points[-1][0] == size:
                points[-1] = (size, index / n)
            else:
                points.append((size, index / n))
        return points

    def mode_fractions(self, sizes: Sequence[int]):
        """Fraction of a sample within 50 bytes of each mode."""
        fractions = {}
        n = len(sizes)
        for mode in self.modes:
            hits = sum(1 for s in sizes if abs(s - mode.size) <= 50)
            fractions[mode.size] = hits / n if n else 0.0
        return fractions
