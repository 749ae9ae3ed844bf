"""Per-path-identifier token buckets (paper Section IV-A).

One bucket guards the bandwidth of one path identifier (or aggregation
group).  Its parameters come from the analytic TCP model
(:mod:`repro.tcp.model`):

* token generation period ``T_Si`` (Eq. IV.1) — at the start of each
  period the bucket is refilled to its size and **unused tokens of the
  previous period are discarded** ("N_Si tokens are generated at the start
  of each period, and the unused tokens of the previous period are
  removed"), so bursts are tolerated *within* a period but credit is never
  banked across periods,
* base size ``N_Si`` (Eq. IV.2) used in flooding mode,
* increased size ``N'_Si`` (Eq. IV.3) used in congested mode, which
  absorbs the stochastic burstiness of i.i.d. legitimate flows.

This design doubles as AQM for the path's TCP flows: by making exactly the
model's packet drops, uniformly one per ``T_Si``, it desynchronises the
flows and provides early congestion notification (Section III-B).
"""

from __future__ import annotations

from ..errors import ConfigError
from ..tcp import model


class PathTokenBucket:
    """Token bucket for one path identifier / aggregation group.

    The bucket operates in ticks.  ``use_increased`` selects between the
    congested-mode size ``N'`` and the flooding-mode size ``N``.
    """

    __slots__ = (
        "period",
        "base_size",
        "increased_size",
        "use_increased",
        "tokens",
        "_next_refill",
        "bandwidth",
        "rtt",
        "n_flows",
        "drops_this_period",
        "last_period_drops",
        "requests_total",
        "denials_total",
    )

    def __init__(
        self,
        bandwidth: float,
        rtt: float,
        n_flows: float,
        now: int = 0,
        use_increased: bool = True,
    ) -> None:
        self.use_increased = use_increased
        self.drops_this_period = 0
        self.last_period_drops = 0
        self.requests_total = 0
        self.denials_total = 0
        self._next_refill = now
        self.tokens = 0.0
        self.set_params(bandwidth, rtt, n_flows)
        self._refill(now)

    # ------------------------------------------------------------------
    # parameterisation
    # ------------------------------------------------------------------
    def set_params(self, bandwidth: float, rtt: float, n_flows: float) -> None:
        """(Re)derive ``T``, ``N`` and ``N'`` from the model equations.

        ``bandwidth`` is the guaranteed rate ``C_Si`` in packets/tick,
        ``rtt`` the (corrected) average path RTT in ticks, ``n_flows`` the
        active flow count.  The period is clamped to at least one tick; the
        sizes are clamped so a refill always grants at least one
        period's worth of line rate.
        """
        if bandwidth <= 0:
            raise ConfigError(f"bandwidth must be positive, got {bandwidth}")
        rtt = max(1.0, rtt)
        n_flows = max(1.0, n_flows)
        self.bandwidth = bandwidth
        self.rtt = rtt
        self.n_flows = n_flows
        period = model.token_period(bandwidth, rtt, n_flows)
        self.period = max(1, round(period))
        # sizes are scaled to the *actual* integer period so the average
        # admitted rate stays C_Si even after clamping.
        base = bandwidth * self.period
        # N'/N = 1 + 2/(3 sqrt n), the Eq. (IV.3) increase factor
        ratio = model.increased_bucket_size(
            bandwidth, rtt, n_flows
        ) / model.bucket_size(bandwidth, rtt, n_flows)
        self.base_size = max(1.0, base)
        self.increased_size = max(1.0, base * ratio)

    @property
    def size(self) -> float:
        """Current operational bucket size (mode dependent)."""
        return self.increased_size if self.use_increased else self.base_size

    @property
    def reference_mtd(self) -> float:
        """The reference MTD ``n_i * T_Si`` of a legitimate flow (ticks)."""
        return self.n_flows * self.period

    # ------------------------------------------------------------------
    # runtime
    # ------------------------------------------------------------------
    def _refill(self, now: int) -> None:
        self.tokens = self.size
        self.last_period_drops = self.drops_this_period
        self.drops_this_period = 0
        self._next_refill = now + self.period

    def on_tick(self, now: int) -> None:
        """Advance time; refill (and discard leftovers) at period edges."""
        if now >= self._next_refill:
            self._refill(now)

    def request(self, amount: float = 1.0) -> bool:
        """Consume ``amount`` tokens if available; return success.

        ``FLocPolicy.admit`` writes this take out inline.  This method is
        the take the admission equivalence oracle runs and the
        ``core.tokenbucket.request_us`` micro-loop of
        ``benchmarks/e2e/layers.py`` times."""
        self.requests_total += 1
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        self.denials_total += 1
        return False
