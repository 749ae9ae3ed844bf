"""Path-churn flooding: the state-exhaustion adversary.

FLoc keeps per-path state, so an attacker who *re-identifies* itself —
rotating through fresh path identifiers the way a botnet rotates through
spoofed prefixes or newly announced more-specifics — attacks the
router's memory rather than the link: every identifier the router
accepts allocates a ``_PathState``, and with ``max_tracked_paths`` set,
forces an eviction that may destroy a long-lived legitimate path's
earned history.  This is the pressure NetFence-style bounded core-router
state is designed to survive; :class:`PathChurnFloodSource` generates it
deterministically so the chaos campaigns and the ``bounded_state`` SLO
can measure whether FLoc's differential guarantee floor holds at a fixed
memory budget.

Unlike :class:`~repro.traffic.adaptive.AdaptiveCbrSource`, whose
``"churn"`` mutation reacts to drops and draws from a small fixed pool,
this source churns **unconditionally** on a fixed cadence and draws
identifiers from a configurable space (up to 10^6+ distinct IDs), with
two modes:

* ``rehandshake=True`` — the bot re-SYNs after every churn, acquiring a
  valid capability for each fresh identifier ("in a legitimate manner",
  paper Section I); every identifier becomes real tracked state.  This
  is the vector that remains, and it is paid for: a SYN still allocates,
  one handshake per identifier.  Churning faster than the handshake
  completes turns it into the mode below on *tracked* identifiers (the
  SYN-ACK for identifier A arrives after the bot has sent a SYN for B).
* ``rehandshake=False`` — the bot keeps its stale capability, so its
  data is dropped as spoofed.  Against a router that allocates path
  state or records the drop before it verifies, this is the cheap-packet
  exhaustion vector; :class:`~repro.core.router.FLocPolicy`
  authenticates first, so each such packet costs it one HMAC and one
  counter.  The mode is the adversary that keeps that vector closed.
"""

from __future__ import annotations

import random
from typing import Optional

from ..errors import ConfigError
from ..net.engine import Engine, FlowInfo
from .cbr import CbrSource

#: Origin-AS offset for churned identifiers, far above any scenario's
#: real AS numbers so churned paths never collide with legitimate ones.
CHURN_ORIGIN_BASE = 10_000_000


class PathChurnFloodSource(CbrSource):
    """CBR flood that rotates to a fresh path identifier on a cadence.

    Parameters
    ----------
    flow:
        The flow to drive; its ``path_id`` suffix (everything after the
        origin AS) is preserved so churned paths stay inside the same
        routing tree as the bot's true attachment point.
    rate:
        Send rate in packets per tick.
    churn_interval:
        Ticks between identifier rotations.
    id_space:
        Size of the identifier space churned over (distinct origin IDs).
    rehandshake:
        Re-SYN after each churn (valid capabilities) or keep the stale
        capability (forged-packet mode); see the module docstring.
    """

    def __init__(
        self,
        flow: FlowInfo,
        rate: float,
        churn_interval: int = 50,
        id_space: int = 1_000_000,
        rehandshake: bool = True,
        start_tick: int = 0,
        stop_tick: Optional[int] = None,
        handshake: bool = True,
    ) -> None:
        if churn_interval < 1:
            raise ConfigError(
                f"churn_interval must be >= 1, got {churn_interval}"
            )
        if id_space < 1:
            raise ConfigError(f"id_space must be >= 1, got {id_space}")
        super().__init__(flow, rate, start_tick, stop_tick, handshake)
        self.churn_interval = churn_interval
        self.id_space = id_space
        self.rehandshake = rehandshake
        self.churns = 0
        self._base_pid = tuple(flow.path_id)
        self._next_churn: Optional[int] = None
        self._rng: Optional[random.Random] = None

    def on_tick(self, engine: Engine, tick: int) -> None:
        active = tick >= self.start_tick and (
            self.stop_tick is None or tick < self.stop_tick
        )
        if active:
            if self._rng is None:
                self._rng = engine.spawn_rng(
                    f"churn-{self.flow.flow_id}"
                )
                self._next_churn = tick + self.churn_interval
            elif self._next_churn is not None and tick >= self._next_churn:
                self._churn(tick)
        super().on_tick(engine, tick)

    def _churn(self, tick: int) -> None:
        assert self._rng is not None and self._next_churn is not None
        origin = CHURN_ORIGIN_BASE + self._rng.randrange(self.id_space)
        self.flow.path_id = (origin,) + self._base_pid[1:]
        self.churns += 1
        if self.rehandshake and self.handshake:
            # shed the old identity completely: re-SYN for a capability
            # bound to the fresh identifier
            self.established = False
            self.capability = None
            self._syn_sent_tick = None
        self._next_churn = tick + self.churn_interval
