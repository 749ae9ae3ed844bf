"""Shrew (low-rate, on/off) attack source.

The Shrew attack (Kuzmanovic & Knightly) sends short, intense bursts timed
to keep TCP flows in repeated timeout/backoff while the *average* rate
stays low enough to evade rate-based detection.  The paper's instance
(Section VI-A): "each attack source sends 2.0 Mbps traffic only during
0.25 RTT seconds within an interval of RTT seconds", with all attack
sources coordinated (synchronised phase) to maximise strength.
"""

from __future__ import annotations

from ..net.engine import FlowInfo
from .cbr import CbrSource


class ShrewSource(CbrSource):
    """On/off CBR: bursts at ``burst_rate`` for ``on_ticks`` every ``period_ticks``.

    Parameters
    ----------
    burst_rate:
        Packets per tick during the on-phase.  (The long-run average rate
        is ``burst_rate * on_ticks / period_ticks``.)
    period_ticks:
        Length of one on/off cycle.
    on_ticks:
        Burst length; the paper's scenario uses ``0.25 * RTT`` of a
        ``RTT``-long period.
    phase:
        Offset of the burst within the cycle; coordinated bots share the
        same phase.
    """

    def __init__(
        self,
        flow: FlowInfo,
        burst_rate: float,
        period_ticks: int,
        on_ticks: int,
        phase: int = 0,
        start_tick: int = 0,
        stop_tick=None,
        handshake: bool = True,
    ) -> None:
        super().__init__(
            flow,
            rate=burst_rate,
            start_tick=start_tick,
            stop_tick=stop_tick,
            handshake=handshake,
        )
        if period_ticks <= 0:
            raise ValueError(f"period_ticks must be positive, got {period_ticks}")
        if not 0 < on_ticks <= period_ticks:
            raise ValueError(
                f"on_ticks must be in (0, period_ticks], got {on_ticks}"
            )
        self.burst_rate = burst_rate
        self.period_ticks = period_ticks
        self.on_ticks = on_ticks
        self.phase = phase % period_ticks

    def current_rate(self, tick: int) -> float:
        """Burst rate inside the on-phase, zero outside."""
        offset = (tick - self.phase) % self.period_ticks
        return self.burst_rate if offset < self.on_ticks else 0.0
