"""Link admission policies.

A :class:`LinkPolicy` decides, for every packet arriving at a link during a
tick, whether the packet is enqueued or dropped.  The engine then services
the FIFO queue at the link's capacity.  FLoc, RED, RED-PD and Pushback are
all implemented as policies over this interface (see
:mod:`repro.core.router` and :mod:`repro.baselines`).

Two reference policies live here:

* :class:`DropTailPolicy` — admit until the buffer is full (classic FIFO).
* :class:`RandomDropPolicy` — when the tick's arrivals plus backlog exceed
  what the link can hold, drop uniformly at random among this tick's
  arrivals.  This is the paper's Internet-scale simulator behaviour
  ("a router randomly selects a packet from the all queued packets during a
  time tick", Section VII-B).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional

from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import Engine
    from .topology import Link


class LinkPolicy:
    """Base class for per-link admission policies.

    Subclasses may override any subset of the hooks.  The engine guarantees
    the calling order per tick: :meth:`on_tick` once, then :meth:`admit` for
    each arrival (in arrival order), then :meth:`on_drop` for every packet
    dropped on this link this tick (both policy drops and buffer-overflow
    tail drops), then the queue is serviced.
    """

    link: "Link"
    engine: "Engine"

    def attach(self, link: "Link", engine: "Engine") -> None:
        """Called once when the engine starts; stores back-references."""
        self.link = link
        self.engine = engine

    def on_tick(self, tick: int) -> None:
        """Per-tick bookkeeping before any arrival is examined."""

    def admit(self, pkt: Packet, tick: int) -> bool:
        """Return ``True`` to enqueue ``pkt``, ``False`` to drop it."""
        return True

    def on_drop(self, pkt: Packet, tick: int) -> None:
        """Notification that ``pkt`` was dropped on this link.

        Must not add to or remove from ``link.queue``: the engine sizes a
        tick's enqueue once, before it reports the overflow.
        """

    def pending_drop_cause(self) -> Optional[str]:
        """Cause label for the drop about to be reported via :meth:`on_drop`.

        The engine peeks this (telemetry drop provenance) immediately
        before calling :meth:`on_drop` for a packet the policy rejected.
        Policies that attribute their drops return one of
        :data:`repro.telemetry.DROP_CAUSES`; the base class returns
        ``None``, which the engine records as the terminal ``overflow``
        stage.
        """
        return None

    def batch_admit(
        self, arrivals: List[Packet], tick: int
    ) -> Optional[List[Packet]]:
        """Optional whole-tick admission.

        Return a list of admitted packets to bypass per-packet
        :meth:`admit` calls (the engine treats the rest as drops), or
        ``None`` to use per-packet admission.  Policies that need to see a
        tick's arrivals together (random selection among arrivals) use this.
        ``arrivals`` itself may be returned; the engine only reads it.
        """
        return None

    # ------------------------------------------------------------------
    # fault-injection hooks (see repro.faults)
    # ------------------------------------------------------------------
    def restart(self, tick: int) -> None:
        """Simulate a router crash/restart: wipe volatile policy state.

        The base policy is stateless, so this is a no-op; stateful
        policies (FLoc) override it and enter a warm-up mode until their
        estimates re-converge.
        """

    def corrupt_state(self, fraction: float, rng: random.Random) -> None:
        """Simulate partial state loss (e.g. a failed line card): forget a
        random ``fraction`` of volatile records.  No-op for stateless
        policies."""

    def jitter_clock(self, offset: int) -> None:
        """Shift the policy's measurement-interval phase by ``offset``
        ticks (clock skew after an NTP step or a VM pause).  No-op for
        policies without periodic measurement."""


class DropTailPolicy(LinkPolicy):
    """Classic FIFO drop-tail: admit while the buffer has room."""

    def admit(self, pkt: Packet, tick: int) -> bool:
        buffer = self.link.buffer
        return buffer is None or len(self.link.queue) < buffer

    def batch_admit(self, arrivals: List[Packet], tick: int) -> List[Packet]:
        # The queue does not grow while a tick's arrivals are judged, so
        # one verdict is every admit() call of the tick: all pass (the
        # engine's enqueue stage tail-drops what does not fit) or none.
        if not arrivals or self.admit(arrivals[0], tick):
            return arrivals
        return []


class RandomDropPolicy(LinkPolicy):
    """Random drop among a tick's arrivals when the buffer would overflow.

    Matches the coarse queue approximation of the paper's Internet-scale
    simulator: when more packets arrive in a tick than the link can buffer
    and serve, the overflow victims are picked uniformly at random from the
    arrivals rather than strictly from the tail.
    """

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._rng = rng

    def attach(self, link: "Link", engine: "Engine") -> None:
        super().attach(link, engine)
        if self._rng is None:
            self._rng = engine.spawn_rng("random-drop")

    def pending_drop_cause(self) -> Optional[str]:
        return "random"

    def batch_admit(self, arrivals: List[Packet], tick: int) -> List[Packet]:
        link = self.link
        if link.buffer is None:
            return list(arrivals)
        room = link.buffer - len(link.queue)
        if room >= len(arrivals):
            return list(arrivals)
        if room <= 0:
            return []
        assert self._rng is not None  # attach() installs one
        return self._rng.sample(arrivals, room)
