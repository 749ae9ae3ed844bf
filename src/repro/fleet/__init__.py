"""The execution fabric: one scheduler, an in-process and a spawn executor.

:func:`~repro.fleet.pool.run_fleet` runs any list of tasks (objects with
a ``name`` and a ``run(ctx)``; the repo's two families are the figure
recipes in :mod:`repro.runner.figures` and the chaos campaigns in
:mod:`repro.chaos.engine`) under one supervision discipline — store
pre-salvage, retries, deadline, graceful stop, outcome rows, spans,
per-task telemetry merged deterministically in canonical task order
(:mod:`repro.fleet.merge`) — either in the calling process or on a
spawn-based worker pool with real fault tolerance:

* hung workers are convicted by a heartbeat liveness watchdog and
  SIGKILLed (:mod:`repro.fleet.heartbeat`);
* dead workers are replaced and their tasks salvaged from the shared
  :class:`~repro.runner.checkpoint.CheckpointStore` — finished results
  load instead of re-running, interrupted simulations resume tick-level
  on another worker (:mod:`repro.fleet.pool`);
* tasks that keep killing workers are quarantined with a reproducer
  artifact instead of retried forever;
* the chaos fault space extends to the fabric itself — planned
  worker kills and stalls (:mod:`repro.fleet.faults`) make every
  ``repro chaos --process-faults`` sweep a supervision integration
  test.

Output is byte-identical whichever executor ran the tasks, for every
worker count.
"""

from .faults import (
    FAULT_KINDS,
    ProcessFault,
    ProcessFaultPlan,
    sample_process_faults,
)
from .heartbeat import Heartbeat, HeartbeatMonitor
from .merge import merge_registries, merge_telemetry
from .pool import (
    FLEET_STATUSES,
    FleetOptions,
    FleetReport,
    TaskOutcome,
    run_fleet,
)
from .worker import WorkerConfig, worker_main

__all__ = [
    "FAULT_KINDS",
    "FLEET_STATUSES",
    "FleetOptions",
    "FleetReport",
    "Heartbeat",
    "HeartbeatMonitor",
    "ProcessFault",
    "ProcessFaultPlan",
    "TaskOutcome",
    "WorkerConfig",
    "merge_registries",
    "merge_telemetry",
    "run_fleet",
    "sample_process_faults",
    "worker_main",
]
