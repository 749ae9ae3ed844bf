"""Deterministic, seed-driven fault schedules.

A :class:`FaultSchedule` is a declarative list of fault events — one-shot
(``at``) or recurring (``every``) — that installs itself as a tick hook on
any *host* exposing the two-method protocol ``add_tick_hook(hook)`` +
``spawn_rng(name)``.  Both the packet-level
:class:`~repro.net.engine.Engine` and the fluid
:class:`~repro.inet.simulator.FluidSimulator` satisfy it, so one schedule
class drives fault experiments in either simulator.

All randomness inside injectors flows through a single RNG derived from
the host's master seed (``host.spawn_rng("faults")``), so a scenario with
a fault schedule is exactly as reproducible as one without: same
(scenario, seed) → same faults → same packet-level outcome.

Convenience builders cover the fault classes of the robustness
experiments: :meth:`link_flap`, :meth:`router_restart`,
:meth:`corrupt_state` and :meth:`clock_jitter`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..errors import ConfigError
from . import injectors as _inj

#: Injector signature: ``fn(host, tick, rng)``.
Injector = Callable[..., None]


@dataclass
class FaultEvent:
    """One scheduled fault: fires once at ``tick``, or every ``period``
    ticks from ``tick`` (inclusive) until ``until`` (exclusive)."""

    tick: int
    injector: Injector
    name: str
    period: Optional[int] = None
    until: Optional[int] = None

    def __post_init__(self) -> None:
        # the builders (at/every/link_flap) validate too, but events can
        # be constructed directly — e.g. by spec interpreters — so the
        # invariants are enforced here as well
        if self.tick < 0:
            raise ConfigError(f"fault tick must be >= 0, got {self.tick}")
        if not callable(self.injector):
            raise ConfigError(
                f"injector must be callable, got {self.injector!r}"
            )
        if self.period is not None and self.period < 1:
            raise ConfigError(
                f"fault period must be >= 1, got {self.period}"
            )
        if self.until is not None and self.until <= self.tick:
            raise ConfigError(
                f"fault until ({self.until}) must be > start ({self.tick})"
            )

    def fires_at(self, tick: int) -> bool:
        if tick < self.tick:
            return False
        if self.period is None:
            return tick == self.tick
        if self.until is not None and tick >= self.until:
            return False
        return (tick - self.tick) % self.period == 0


@dataclass
class FaultSchedule:
    """An installable list of :class:`FaultEvent`.

    Build it up with :meth:`at` / :meth:`every` (or the convenience
    builders), then :meth:`install` it on a host before running.  Every
    fired event is appended to :attr:`log` as ``(tick, name)`` for
    post-run inspection.
    """

    events: List[FaultEvent] = field(default_factory=list)
    log: List[Tuple[int, str]] = field(default_factory=list)

    # -- declarative construction --------------------------------------
    def at(
        self, tick: int, injector: Injector, name: Optional[str] = None
    ) -> "FaultSchedule":
        """Fire ``injector`` once at ``tick``; returns self for chaining."""
        if tick < 0:
            raise ConfigError(f"fault tick must be >= 0, got {tick}")
        if not callable(injector):
            raise ConfigError(f"injector must be callable, got {injector!r}")
        self.events.append(
            FaultEvent(tick=tick, injector=injector, name=name or "fault")
        )
        return self

    def every(
        self,
        period: int,
        injector: Injector,
        start: int = 0,
        until: Optional[int] = None,
        name: Optional[str] = None,
    ) -> "FaultSchedule":
        """Fire ``injector`` at ``start``, ``start+period``, ... while
        the tick is below ``until`` (``None`` = forever)."""
        if period < 1:
            raise ConfigError(f"fault period must be >= 1, got {period}")
        if start < 0:
            raise ConfigError(f"fault start must be >= 0, got {start}")
        if until is not None and until <= start:
            raise ConfigError(
                f"fault until ({until}) must be > start ({start})"
            )
        if not callable(injector):
            raise ConfigError(f"injector must be callable, got {injector!r}")
        self.events.append(
            FaultEvent(
                tick=start,
                injector=injector,
                name=name or "recurring-fault",
                period=period,
                until=until,
            )
        )
        return self

    # -- convenience builders ------------------------------------------
    def link_flap(
        self, src, dst, down_tick: int, up_tick: int
    ) -> "FaultSchedule":
        """Take link ``src -> dst`` down at ``down_tick`` and restore it
        (with original flow routes) at ``up_tick``."""
        if up_tick <= down_tick:
            raise ConfigError(
                f"up_tick ({up_tick}) must be > down_tick ({down_tick})"
            )
        flap = _inj.LinkFlap(src, dst)
        self.at(down_tick, flap.down, name=f"link-down {src}->{dst}")
        self.at(up_tick, flap.up, name=f"link-up {src}->{dst}")
        return self

    def router_restart(self, src, dst, tick: int) -> "FaultSchedule":
        """Crash/restart the policy on ``src -> dst`` at ``tick``."""
        return self.at(
            tick, _inj.router_restart(src, dst), name=f"restart {src}->{dst}"
        )

    def corrupt_state(
        self, src, dst, tick: int, fraction: float = 0.5
    ) -> "FaultSchedule":
        """Lose a random ``fraction`` of the policy's volatile state."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(
                f"corruption fraction must be in [0, 1], got {fraction}"
            )
        return self.at(
            tick,
            _inj.state_corruption(src, dst, fraction),
            name=f"corrupt {src}->{dst}",
        )

    def clock_jitter(
        self, src, dst, tick: int, max_offset: int = 10
    ) -> "FaultSchedule":
        """Shift the policy's measurement phase by a random offset."""
        if max_offset < 0:
            raise ConfigError(
                f"max_offset must be >= 0, got {max_offset}"
            )
        return self.at(
            tick,
            _inj.clock_jitter(src, dst, max_offset),
            name=f"clock-jitter {src}->{dst}",
        )

    def counter_corruption(
        self, src, dst, tick: int, target: str = "ledger", skew: int = 7
    ) -> "FaultSchedule":
        """Silently skew an accounting counter (see
        :class:`~repro.faults.injectors.CounterCorruption`) — the bug
        class the :mod:`repro.sanitize` strict mode exists to catch."""
        return self.at(
            tick,
            _inj.CounterCorruption(src, dst, target=target, skew=skew),
            name=f"counter-corrupt {src}->{dst} ({target})",
        )

    # -- installation ---------------------------------------------------
    def install(self, host) -> "FaultSchedule":
        """Register the schedule as a tick hook on ``host``.

        ``host`` must expose ``add_tick_hook(hook)`` and
        ``spawn_rng(name)`` — both simulators do.  Installing the same
        schedule on several hosts is allowed (each gets its own RNG), but
        stateful injectors (:class:`~repro.faults.injectors.LinkFlap`)
        must not be shared across hosts.
        """
        host.add_tick_hook(_InstalledSchedule(self, host.spawn_rng("faults")))
        return self


@dataclass
class _InstalledSchedule:
    """One installation of a schedule on one host: the tick hook."""

    schedule: "FaultSchedule"
    rng: "random.Random"

    def __call__(self, host, tick: int) -> None:
        for event in self.schedule.events:
            if event.fires_at(tick):
                event.injector(host, tick, self.rng)
                self.schedule.log.append((tick, event.name))
