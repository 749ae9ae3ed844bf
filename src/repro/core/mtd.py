"""Mean-time-to-drop (MTD) measurement and attack identification.

Section IV-B: a flow's MTD is its average packet-drop interval,

    ``MTD(f) = k * T_Si / (number of drops in the last k periods)``
    (Eq. IV.4, measured over ``k >= n_i`` periods),

and under FLoc's token-based admission the reference MTD of a *legitimate*
flow on path ``S_i`` is ``n_i * T_Si`` — the bucket makes one drop per
period, spread over ``n_i`` flows.  Because an attack flow's drop rate is
proportional to its send rate, its MTD sits well below the reference no
matter the attack strategy (CBR, Shrew bursts, covert aggregates), which is
what makes MTD a strategy-independent detector.

Identified attack flows are admitted with probability

    ``Pr(f serviced) = I_token * min{1, MTD(f) / (n_i * T_Si)}``
    (Eq. IV.5),

which upper-bounds their throughput by the fair share and *self-heals* for
misidentified flows: a source that backs off sees its MTD rise and its
service probability return to one.  ``FLocPolicy.admit`` computes Eq. IV.4
for the packet's unit and draws Eq. IV.5 inline; this module keeps the
drop records it counts and the per-interval identification rules.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, List

INFINITE_MTD = float("inf")


class FlowDropTracker:
    """Exact sliding-window drop records per accounting unit.

    This is the reference implementation used in the functional
    evaluation; the scalable approximation is
    :class:`~repro.core.dropfilter.DropRecordFilter`.

    Invariant: each unit's record is in non-decreasing tick order —
    :meth:`record_drop` refuses a tick older than the unit's newest.
    Trimming from the old end, counting a window from the new end and the
    sanitizer's ``mtd-monotonic`` check all rely on it.
    """

    def __init__(self, horizon: int = 2000) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.horizon = horizon
        self._drops: Dict[Hashable, Deque[int]] = {}

    def record_drop(self, key: Hashable, tick: int) -> None:
        """Record one drop of accounting unit ``key`` at ``tick``
        (``FLocPolicy.on_drop`` calls this for every charged drop)."""
        dq = self._drops.get(key)
        if dq is None:
            dq = deque()
            self._drops[key] = dq
        elif dq and tick < dq[-1]:
            raise ValueError(
                f"drop at tick {tick} is older than the newest record "
                f"({dq[-1]}) of unit {key!r}"
            )
        dq.append(tick)

    def _trim(self, dq: Deque[int], oldest: int) -> None:
        while dq and dq[0] < oldest:
            dq.popleft()

    def drops_in_window(self, key: Hashable, tick: int, window: int) -> int:
        """Drops of ``key`` within ``(tick - window, tick]``, in time
        proportional to that count rather than to the retained record."""
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        dq = self._drops.get(key)
        if not dq:
            return 0
        if dq[0] < tick - self.horizon:
            self._trim(dq, tick - self.horizon)
        oldest = tick - window
        count = 0
        for t in reversed(dq):
            if t <= oldest:
                break
            count += 1
        return count

    def mtd(self, key: Hashable, tick: int, window: int) -> float:
        """Eq. (IV.4): ``window / drops``; infinite when drop-free.

        The refresh (``FLocPolicy._refresh``) identifies units with this;
        ``admit`` writes the same count out for the arriving unit."""
        window = min(window, self.horizon)
        drops = self.drops_in_window(key, tick, window)
        if drops == 0:
            return INFINITE_MTD
        return window / drops

    def drop_count(self, key: Hashable) -> int:
        """All retained drops of ``key`` (horizon-pruned lazily; callers
        folding state into the sketch tier want the full retained mass)."""
        dq = self._drops.get(key)
        return len(dq) if dq else 0

    def forget(self, key: Hashable) -> None:
        """Discard the drop record of one unit (fault-injected state loss)."""
        self._drops.pop(key, None)

    def forget_stale(self, tick: int) -> None:
        """Release memory of units with no drops inside the horizon."""
        oldest = tick - self.horizon
        stale = []
        for key, dq in self._drops.items():
            self._trim(dq, oldest)
            if not dq:
                stale.append(key)
        for key in stale:
            del self._drops[key]

    def units(self) -> List[Hashable]:
        """The accounting units holding a drop record, in the order their
        records were opened."""
        return list(self._drops)

    def tracked_units(self) -> int:
        """Number of accounting units with live drop records."""
        return len(self._drops)


class MtdClassifier:
    """Stateless decision rules derived from MTD values."""

    def __init__(
        self,
        attack_mtd_fraction: float = 0.5,
        block_mtd_fraction: float = 1.0 / 64.0,
    ) -> None:
        self.attack_mtd_fraction = attack_mtd_fraction
        self.block_mtd_fraction = block_mtd_fraction

    def is_attack_flow(self, mtd: float, reference_mtd: float) -> bool:
        """A flow whose MTD sits well below the reference is attacking."""
        if mtd == INFINITE_MTD:
            return False
        return mtd < self.attack_mtd_fraction * reference_mtd

    def should_block(self, mtd: float, reference_mtd: float) -> bool:
        """Extremely high-rate flows are blocked outright (Section V-B.3)."""
        if mtd == INFINITE_MTD:
            return False
        return mtd < self.block_mtd_fraction * reference_mtd
