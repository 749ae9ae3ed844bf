"""Deterministic fault injection for robustness experiments.

The subsystem has two halves:

* :mod:`repro.faults.schedule` — :class:`FaultSchedule`, a declarative,
  seed-driven event list that installs on either simulator's tick hook.
* :mod:`repro.faults.injectors` — the fault actions themselves: link
  flaps with automatic rerouting, router (policy) restarts, partial state
  corruption, measurement-clock jitter, and fluid-level uplink
  degradation.

See ``docs/architecture.md`` ("Fault injection & degradation") for how
the pieces compose; :mod:`repro.chaos` builds every schedule that
``repro chaos`` and ``repro run faults`` install.
"""

from .injectors import (
    CounterCorruption,
    FluidCounterCorruption,
    FluidLinkDegrade,
    LinkFlap,
    clock_jitter,
    fluid_restart,
    router_restart,
    state_corruption,
)
from .schedule import FaultEvent, FaultSchedule

__all__ = [
    "CounterCorruption",
    "FaultEvent",
    "FaultSchedule",
    "FluidCounterCorruption",
    "FluidLinkDegrade",
    "LinkFlap",
    "clock_jitter",
    "fluid_restart",
    "router_restart",
    "state_corruption",
]
