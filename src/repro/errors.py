"""Exception hierarchy for the FLoc reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent with others."""


class TopologyError(ReproError):
    """The network topology is malformed (unknown node, no route, ...)."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class CapabilityError(ReproError):
    """A capability failed verification or violated the fanout limit."""


class InvariantViolation(SimulationError):
    """A runtime invariant check failed (see :mod:`repro.sanitize`).

    Carries the tick the violation was detected at, the invariant's name,
    and a human-readable diagnostic, so strict-mode failures pinpoint the
    corrupted counter rather than surfacing as a wrong figure row.
    """

    def __init__(self, invariant: str, tick: int, detail: str) -> None:
        super().__init__(f"[tick {tick}] invariant {invariant!r} violated: {detail}")
        self.invariant = invariant
        self.tick = tick
        self.detail = detail


class RunnerError(ReproError):
    """The supervised experiment runner failed (see :mod:`repro.runner`)."""


class CheckpointError(RunnerError):
    """A checkpoint could not be written, read, or verified."""


class DeadlineExceeded(RunnerError):
    """A supervised task gave up on its job's deadline; the scheduler
    ends the run as ``deadline``."""


class Interrupted(RunnerError):
    """A supervised task asked its run to stop; the scheduler ends the
    run as ``interrupted``, as it does when a shutdown signal
    (SIGTERM/SIGINT) arrives between tasks.  Completed units stay
    stored; re-run with ``--resume`` to run the rest."""

