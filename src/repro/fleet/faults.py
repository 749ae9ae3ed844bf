"""Process-level chaos faults: kill or stall a worker mid-campaign.

The chaos engine's existing fault space perturbs the *simulated*
network; these faults perturb the *fabric itself*, so every chaos sweep
with ``--process-faults N`` doubles as an integration test of worker
supervision:

* ``kill_worker`` — a timer thread SIGKILLs the worker's own process
  partway through the victim task.  The supervisor must notice the
  death, respawn, and run the task again on the replacement worker.
* ``stall_worker`` — the worker suppresses its heartbeat and blocks
  instead of running the victim task, simulating a hang the run's
  deadline watchdog can never see.  The supervisor's liveness monitor must
  convict and SIGKILL it.

Faults are sampled deterministically from the sweep seed via
:func:`repro.chaos.spec.chaos_rng` and fire **once** per plan: the
worker claims an ``O_EXCL`` marker file in the shared fleet directory
before applying a fault, so the task's retry on the replacement worker
runs clean.  Because recovery is a from-scratch rerun of a pure unit
(or a load of the result it already stored), a faulted sweep's digests
and results stay byte-identical to an unfaulted one — which is
precisely the property the ``kill-recovery`` and ``chaos-fleet`` checks
of ``repro selfcheck`` assert.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..chaos.spec import chaos_rng
from ..errors import ConfigError

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "ProcessFault",
    "ProcessFaultPlan",
    "sample_process_faults",
]

FAULT_KINDS: Tuple[str, ...] = ("kill_worker", "stall_worker")


@dataclass(frozen=True)
class ProcessFault:
    """One planned fault against whichever worker draws ``task``."""

    task: str
    kind: str
    delay_seconds: float

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.delay_seconds < 0:
            raise ConfigError(
                f"fault delay must be >= 0, got {self.delay_seconds}"
            )


@dataclass(frozen=True)
class ProcessFaultPlan:
    """A picklable set of planned faults, keyed by task name."""

    faults: Tuple[ProcessFault, ...] = ()

    def get(self, task: str) -> Optional[ProcessFault]:
        for fault in self.faults:
            if fault.task == task:
                return fault
        return None


def sample_process_faults(
    seed: int,
    task_names: Sequence[str],
    count: int,
) -> ProcessFaultPlan:
    """Deterministically plan ``count`` faults over ``task_names``."""
    if count < 0:
        raise ConfigError(f"fault count must be >= 0, got {count}")
    names = sorted(set(task_names))
    count = min(count, len(names))
    if count == 0:
        return ProcessFaultPlan()
    rng = chaos_rng(seed, "process-faults")
    victims = sorted(rng.sample(names, count))
    faults: List[ProcessFault] = []
    for victim in victims:
        kind = FAULT_KINDS[rng.randrange(len(FAULT_KINDS))]
        delay = round(0.05 + 0.45 * rng.random(), 3)
        faults.append(ProcessFault(task=victim, kind=kind, delay_seconds=delay))
    return ProcessFaultPlan(faults=tuple(faults))


class FaultInjector:
    """Worker-side fault application with shared fire-once markers."""

    def __init__(
        self,
        plan: Optional[ProcessFaultPlan],
        marker_dir: str,
    ) -> None:
        self.plan = plan
        self.marker_dir = marker_dir
        if plan is not None and plan.faults:
            os.makedirs(marker_dir, exist_ok=True)

    def _claim(self, task: str) -> bool:
        """Atomically claim the one firing of ``task``'s fault."""
        path = os.path.join(self.marker_dir, f"fired-{task}.marker")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(str(os.getpid()))
        return True

    def apply(self, task: str, heartbeat: "object") -> None:
        """Apply the planned fault for ``task``, if any and unfired.

        Called by the worker immediately before running the task.
        ``kill_worker`` arms a SIGKILL timer and returns (the task runs
        and dies mid-flight); ``stall_worker`` suppresses the heartbeat
        and blocks here forever — only the supervisor's SIGKILL ends it.
        """
        if self.plan is None:
            return
        fault = self.plan.get(task)
        if fault is None or not self._claim(task):
            return
        if fault.kind == "kill_worker":
            timer = threading.Timer(
                fault.delay_seconds,
                os.kill,
                args=(os.getpid(), signal.SIGKILL),
            )
            timer.daemon = True
            timer.start()
        else:  # stall_worker
            time.sleep(fault.delay_seconds)
            setattr(heartbeat, "suppressed", True)
            while True:  # simulated hang; ends only via supervisor SIGKILL
                time.sleep(3600.0)
