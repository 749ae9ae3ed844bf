"""Wall-time attribution per simulation subsystem.

The profiler belongs to the span tracer: an enabled
:class:`~repro.trace.Tracer` holds one, the packet engine and the fluid
simulator read it from :func:`~repro.trace.current_tracer` on every tick,
and the scheduler turns its totals into per-task phase spans.

It is one of the two modules allowed to read a wall clock
(``time.perf_counter``; the other is :mod:`repro.trace.clock`), by the
FLC001 allowlist in ``tests/check/flocheck/rules/determinism.py``.
Profiler output is *diagnostic only* — it never feeds run digests,
checkpoints, or any simulated quantity — and :meth:`__getstate__` drops
all timings, so anything that holds a profiler pickles the same however
fast the host ran.

Usage inside a tick loop::

    t0 = profiler.start()
    ...arrivals phase...
    t0 = profiler.lap("arrivals", t0)
    ...policy phase...
    t0 = profiler.lap("policy", t0)
    profiler.tick_done()
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

__all__ = ["TickProfiler"]


class TickProfiler:
    """Accumulates wall seconds per named subsystem across ticks."""

    def __init__(self) -> None:
        self.totals_seconds: Dict[str, float] = {}
        self.ticks_profiled: int = 0

    def start(self) -> float:
        """Timestamp the start of a profiled region."""
        return time.perf_counter()

    def lap(self, subsystem: str, since: float) -> float:
        """Charge the time since ``since`` to ``subsystem``; returns *now*.

        Returning the new timestamp lets call sites chain laps without a
        second clock read per boundary.
        """
        now = time.perf_counter()
        self.totals_seconds[subsystem] = (
            self.totals_seconds.get(subsystem, 0.0) + (now - since)
        )
        return now

    def tick_done(self) -> None:
        self.ticks_profiled += 1

    # Wall-clock data must never reach a checkpoint or digest: pickling a
    # profiler yields an empty one.
    def __getstate__(self) -> Tuple[()]:
        return ()

    def __setstate__(self, state: Tuple[()]) -> None:
        self.totals_seconds = {}
        self.ticks_profiled = 0
