"""Supervision primitives shared by every executor of the scheduler.

:func:`repro.fleet.pool.run_fleet` drives tasks either in the calling
process or on a spawn pool; what a task sees of its supervisor is the
same either way and lives here:

* :class:`RetryPolicy` — a bounded number of retries with seed-derived
  jittered backoff (deterministic errors — bad config, invariant
  violations — are never retried: re-running cannot fix them);
* :class:`Watchdog` — a wall-clock deadline, checked between tasks, so
  a task that has started always finishes;
* :class:`GracefulShutdown` — SIGTERM/SIGINT request a stop: the
  running task finishes and its result is stored, no further task
  starts, and the run reports ``interrupted`` so a later ``--resume``
  runs only the tasks left;
* :class:`UnitContext` — what the scheduler hands a task's ``run``.
"""

from __future__ import annotations

import hashlib
import math
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..errors import (
    ConfigError,
    DeadlineExceeded,
    Interrupted,
    InvariantViolation,
)
from .checkpoint import CheckpointStore

#: Errors retrying cannot fix: same inputs -> same failure.
NON_RETRYABLE = (ConfigError, InvariantViolation, DeadlineExceeded, Interrupted)


class Watchdog:
    """Wall-clock deadline.

    :attr:`expired` turns true once ``deadline_seconds`` have elapsed
    since construction.  The scheduler reads it between tasks, so a
    deadline never cuts a task short.
    """

    def __init__(
        self,
        deadline_seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not (math.isfinite(deadline_seconds) and deadline_seconds > 0):
            raise ConfigError(
                f"deadline must be positive and finite, got {deadline_seconds}"
            )
        self.deadline_seconds = deadline_seconds
        self._clock = clock
        self._started = clock()

    def elapsed(self) -> float:
        return self._clock() - self._started

    def remaining(self) -> float:
        return self.deadline_seconds - self.elapsed()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0


class RetryPolicy:
    """Bounded retries with deterministic seed-derived jittered backoff.

    The backoff for (unit, attempt) is ``base * 2**attempt`` scaled by a
    jitter factor in [0.5, 1.5) derived from sha256(seed, unit, attempt) —
    reproducible across runs (no wall-clock randomness), yet decorrelated
    across units so a fleet of retrying jobs does not thundering-herd.
    """

    def __init__(
        self,
        max_retries: int = 2,
        base_delay: float = 0.5,
        max_delay: float = 30.0,
        seed: int = 0,
    ) -> None:
        if max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.max_retries = max_retries
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.seed = seed

    def retryable(self, exc: BaseException) -> bool:
        return isinstance(exc, Exception) and not isinstance(
            exc, NON_RETRYABLE
        )

    def backoff(self, unit: str, attempt: int) -> float:
        """Delay in seconds before retry number ``attempt`` (1-based)."""
        digest = hashlib.sha256(
            f"{self.seed}:{unit}:{attempt}".encode()
        ).digest()
        jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2**64
        return min(self.max_delay, self.base_delay * 2 ** (attempt - 1)) * jitter


class GracefulShutdown:
    """SIGTERM/SIGINT -> a cooperative stop flag.

    Used as a context manager around a supervised job.  The first signal
    sets :attr:`requested`; the scheduler reads it between tasks.
    Previous handlers are restored on exit.
    """

    def __init__(self) -> None:
        self.requested = False
        self._previous: Dict[int, Any] = {}

    def _handler(self, signum, frame) -> None:
        self.requested = True

    def __enter__(self) -> "GracefulShutdown":
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._previous[signum] = signal.signal(signum, self._handler)
            except ValueError:
                # not the main thread: fall back to never-signalled
                pass
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)
        self._previous.clear()


@dataclass
class UnitContext:
    """Everything a unit callable may use from its supervisor."""

    name: str
    store: Optional[CheckpointStore] = None
    sanitize: Optional[str] = None
    #: span id of the supervisor's unit/task span, so spans a task opens
    #: (a chaos campaign's) parent under it on the merged timeline
    trace_parent: Optional[str] = None
