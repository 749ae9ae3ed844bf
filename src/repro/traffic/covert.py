"""Covert attack source (paper Sections IV-B.3 and VI-D).

In a covert attack every individual flow looks legitimate: a bot opens many
concurrent connections to *different destinations* across the target link
and sends low-rate, TCP-conformant-looking traffic on each.  With ``N``
bots on each side of a link this creates up to ``O(N^2)`` flows that
collectively soak the bandwidth of genuinely legitimate flows while no
single flow is aggressive.

FLoc counters this with the two-part capability (see
:mod:`repro.core.capability`): the ``C^1`` component hashes the destination
into one of ``n_max`` buckets, so all of a source's flows collapse into at
most ``n_max`` accounting units whose *combined* rate is what MTD-based
identification sees.
"""

from __future__ import annotations

from typing import Iterable, List

from ..net.engine import Engine, FlowInfo
from ..net.source import TrafficSource
from .cbr import CbrSource


class CovertSource(TrafficSource):
    """One bot host driving many low-rate CBR flows to distinct destinations.

    Parameters
    ----------
    flows:
        One flow per destination (all sharing the same source host; the
        scenario builder creates them).
    per_flow_rate:
        Packets per tick on each flow — chosen to be *at or below* the fair
        per-flow bandwidth, so each flow is individually unremarkable.
    """

    def __init__(
        self,
        flows: List[FlowInfo],
        per_flow_rate: float,
        start_tick: int = 0,
    ) -> None:
        if not flows:
            raise ValueError("CovertSource needs at least one flow")
        hosts = {flow.src_host for flow in flows}
        if len(hosts) != 1:
            raise ValueError(f"covert flows must share one source host, got {hosts}")
        self._subsources = [
            CbrSource(flow, per_flow_rate, start_tick=start_tick)
            for flow in flows
        ]
        self._by_flow = {
            sub.flow.flow_id: sub for sub in self._subsources
        }
        self.per_flow_rate = per_flow_rate

    @property
    def fanout(self) -> int:
        """Number of concurrent destinations (flows) of this bot."""
        return len(self._subsources)

    def flows(self) -> Iterable[FlowInfo]:
        return [sub.flow for sub in self._subsources]

    def on_tick(self, engine: Engine, tick: int) -> None:
        for sub in self._subsources:
            sub.on_tick(engine, tick)

    def on_ack(self, engine: Engine, flow: FlowInfo, pkt, tick: int) -> None:
        self._by_flow[flow.flow_id].on_ack(engine, flow, pkt, tick)

    def on_synack(self, engine: Engine, flow: FlowInfo, pkt, tick: int) -> None:
        self._by_flow[flow.flow_id].on_synack(engine, flow, pkt, tick)
