"""Base class for traffic sources.

A traffic source owns one or more flows and is driven by the engine:
:meth:`TrafficSource.on_tick` is called in the emission phase of every tick
the source has not declared itself asleep for (``next_wake``), and
:meth:`on_ack` / :meth:`on_synack` are called when acknowledgements reach
the source host.
"""

from __future__ import annotations

from typing import Iterable

from .engine import Engine, FlowInfo
from .packet import Packet


class TrafficSource:
    """Abstract traffic source; subclasses emit packets in :meth:`on_tick`.

    ``next_wake`` lets a source sleep: the engine skips :meth:`on_tick`
    while ``next_wake > tick``.  The default ``0`` means "poll me every
    tick".  The contract, for a class that sets it:

    * it is a promise, never a requirement — ``on_tick`` must stay safe and
      leave identical state when called on every tick anyway (composite
      sources and tests do), so a sleep may only cover ticks on which
      ``on_tick`` would have done nothing;
    * :meth:`on_ack` / :meth:`on_synack` reset it to ``0`` whenever the
      delivery can change what ``on_tick`` does, so the source phase of
      the same tick runs;
    * declare it only in the class that owns *all* of the source's
      per-tick work: a subclass that acts before ``super().on_tick``
      (adaptation windows, identifier churn) would silently lose those
      ticks to a sleep its base class declared.
    """

    #: first tick at which :meth:`on_tick` may have something to do
    next_wake: int = 0

    def flows(self) -> Iterable[FlowInfo]:
        """The flows this source owns (used by the engine to route ACKs)."""
        raise NotImplementedError

    def on_tick(self, engine: Engine, tick: int) -> None:
        """Emit packets for this tick."""
        raise NotImplementedError

    def on_ack(self, engine: Engine, flow: FlowInfo, pkt: Packet, tick: int) -> None:
        """An ACK for ``pkt.seq`` reached the source host (default: ignore)."""

    def on_synack(
        self, engine: Engine, flow: FlowInfo, pkt: Packet, tick: int
    ) -> None:
        """A SYN-ACK reached the source host (default: ignore)."""
