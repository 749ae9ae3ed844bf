"""Path-conformance tracking (paper Section IV-C, Eq. IV.6).

The *conformance* of a path identifier is the fraction of its flows that
are legitimate, smoothed over time:

    ``E(t_k) = beta * (1 - n_attack / n) + (1 - beta) * E(t_{k-1})``

with ``beta = 0.2`` in the paper's simulations.  Paths whose conformance
falls below the threshold ``E_th`` form the attack tree and are candidates
for attack-path aggregation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..errors import ConfigError
from .pathid import PathId


class ConformanceTracker:
    """Per-path EWMA of the legitimate-flow fraction."""

    def __init__(self, beta: float = 0.2, initial: float = 1.0) -> None:
        if not 0.0 < beta < 1.0:
            raise ConfigError(f"beta must be in (0, 1), got {beta}")
        if not 0.0 <= initial <= 1.0:
            raise ConfigError(f"initial must be in [0, 1], got {initial}")
        self.beta = beta
        self.initial = initial
        self._values: Dict[PathId, float] = {}

    def update(self, pid: PathId, n_flows: int, n_attack: int) -> float:
        """Fold one measurement interval into the path's conformance."""
        self.update_many(((pid, n_flows, n_attack),))
        return self._values[pid]

    def update_many(
        self, measurements: Iterable[Tuple[PathId, int, int]]
    ) -> None:
        """Fold one measurement interval into many paths' conformance:
        :meth:`update` for each ``(pid, n_flows, n_attack)``, in order,
        in one call."""
        beta = self.beta
        keep = 1.0 - beta
        initial = self.initial
        values = self._values
        previous = values.get
        for pid, n_flows, n_attack in measurements:
            # past the first test ``n_flows`` is not negative, so the
            # attack count is bounded by ``max(n_flows, 0) == n_flows``
            if n_flows < 0 or n_attack < 0 or n_attack > n_flows:
                raise ConfigError(
                    f"invalid flow counts n={n_flows}, attack={n_attack}"
                )
            instant = 1.0 if n_flows == 0 else 1.0 - n_attack / n_flows
            values[pid] = beta * instant + keep * previous(pid, initial)

    def value(self, pid: PathId) -> float:
        """Current conformance of ``pid`` (paths start fully conformant)."""
        return self._values.get(pid, self.initial)

    def values(self) -> Dict[PathId, float]:
        """Snapshot of all tracked conformance values."""
        return dict(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def partition(
        self, pids: Iterable[PathId], threshold: float
    ) -> Tuple[List[PathId], List[PathId]]:
        """Split paths into (legitimate, attack) by the threshold ``E_th``."""
        legit: List[PathId] = []
        attack: List[PathId] = []
        values, initial = self._values, self.initial
        for pid in pids:
            if values.get(pid, initial) < threshold:
                attack.append(pid)
            else:
                legit.append(pid)
        return legit, attack

    def forget(self, pid: PathId) -> None:
        """Drop state for a path that disappeared."""
        self._values.pop(pid, None)

    def known_value(self, pid: PathId) -> "float | None":
        """Tracked conformance of ``pid``, or ``None`` if never updated —
        unlike :meth:`value`, which hides the distinction behind the
        fully-conformant default."""
        return self._values.get(pid)

    def seed(self, pid: PathId, value: float) -> None:
        """Install a prior estimate for an untracked path (sketch-tier
        revival after an eviction); existing values are never clobbered."""
        if pid not in self._values:
            self._values[pid] = min(1.0, max(0.0, value))

    @staticmethod
    def classify_value(value: float, threshold: float) -> str:
        """Label a conformance value against ``E_th``: attack or legit."""
        return "attack" if value < threshold else "legit"

    def classify(self, pid: PathId, threshold: float) -> str:
        """Label ``pid``'s current conformance against ``E_th``."""
        return self.classify_value(self.value(pid), threshold)
