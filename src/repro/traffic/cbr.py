"""Constant-bit-rate (CBR) attack source.

Models a flooding bot: it completes the SYN handshake (acquiring a valid
capability "in a legitimate manner", paper Section I), then sends at a
fixed rate regardless of drops — it is *unresponsive* to congestion, which
is exactly the behaviour FLoc's MTD mechanism detects.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..net.engine import Engine, FlowInfo
from ..net.packet import DATA, SYN, Packet
from ..net.source import TrafficSource


class CbrSource(TrafficSource):
    """Sends ``rate`` data packets per tick (fractional rates accumulate).

    Parameters
    ----------
    flow:
        The flow to drive.
    rate:
        Send rate in packets per tick.
    start_tick / stop_tick:
        Active interval; the SYN goes out at ``start_tick``.
    handshake:
        When ``True`` (default) the bot performs the SYN exchange before
        sending data, so it holds a router-issued capability.
    """

    def __init__(
        self,
        flow: FlowInfo,
        rate: float,
        start_tick: int = 0,
        stop_tick: Optional[int] = None,
        handshake: bool = True,
    ) -> None:
        self.flow = flow
        self.rate = rate
        self.start_tick = start_tick
        self.stop_tick = stop_tick
        self.handshake = handshake
        self.established = not handshake
        self.capability: Optional[bytes] = None
        self.packets_sent = 0
        self._next_seq = 0
        self._credit = 0.0
        self._syn_sent_tick: Optional[int] = None

    def flows(self) -> Iterable[FlowInfo]:
        return (self.flow,)

    def current_rate(self, tick: int) -> float:
        """Send rate at ``tick`` (subclass hook; constant here)."""
        return self.rate

    def on_tick(self, engine: Engine, tick: int) -> None:
        if tick < self.start_tick:
            return
        if self.stop_tick is not None and tick >= self.stop_tick:
            return
        if not self.established:
            self._handshake(engine, tick)
            return
        self._credit += self.current_rate(tick)
        count = int(self._credit)
        if not count:
            return
        self._credit -= count
        # one burst, built positionally (keyword passing cost a fifth of a
        # flood's run time)
        flow = self.flow
        emit = engine.emit
        first = self._next_seq
        for seq in range(first, first + count):
            emit(
                Packet(
                    flow.flow_id,
                    DATA,
                    seq,
                    flow.path_id,
                    flow.route,
                    flow.src_host,
                    flow.dst_host,
                    tick,
                    self.capability,
                )
            )
        self._next_seq = first + count
        self.packets_sent += count

    def on_synack(
        self, engine: Engine, flow: FlowInfo, pkt: Packet, tick: int
    ) -> None:
        self.established = True
        self.capability = pkt.capability

    def _handshake(self, engine: Engine, tick: int) -> None:
        if self._syn_sent_tick is not None and tick - self._syn_sent_tick <= 40:
            return
        self._syn_sent_tick = tick
        flow = self.flow
        engine.emit(
            Packet(
                flow.flow_id,
                SYN,
                0,
                flow.path_id,
                flow.route,
                flow.src_host,
                flow.dst_host,
                tick,
                self.capability,
            )
        )
