"""The spawn-side of the fabric: one worker process, one task at a time.

Protocol (all messages are picklable tuples):

* supervisor -> worker, per-worker task queue:
  ``("task", seq, task, parent_span)`` or ``("stop",)`` —
  ``parent_span`` is the supervisor-side task span id (or ``None``), so
  the worker's spans join the cross-process trace DAG under it;
* worker -> supervisor, shared result queue:
  ``("done", worker_id, seq, name, result, telemetry, resumed)`` or
  ``("fail", worker_id, seq, name, error, retryable)``.

Crash-safety ordering: before reporting ``done`` the worker persists the
task's telemetry piece and then its result into the shared
:class:`~repro.runner.checkpoint.CheckpointStore` (telemetry first, so a
stored result implies a stored telemetry piece).  A worker SIGKILLed in
the send window therefore loses nothing — the supervisor salvages the
completed task straight from the store.  A worker killed mid-task leaves
nothing of the task behind, so the replacement worker runs it again from
its recipe, with the same result.

Each task runs under a **fresh** telemetry of the configured mode; the
piece ships back with the result and the supervisor folds the pieces in
canonical task order (:mod:`repro.fleet.merge`), which is what makes
telemetry independent of the executor and of scheduling.  The in-process
executor (``FleetOptions.workers=None``) calls the same :func:`_run_task`
directly.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..runner.checkpoint import CheckpointStore
from ..runner.supervisor import NON_RETRYABLE, UnitContext
from ..telemetry import NullTelemetry, Telemetry, use
from ..trace import (
    NULL_TRACER,
    SpanHandle,
    TraceContext,
    Tracer,
    current_tracer,
    use_tracer,
)
from .faults import FaultInjector, ProcessFaultPlan
from .heartbeat import Heartbeat

__all__ = ["WorkerConfig", "load_completed", "worker_main", "telemetry_key"]


def telemetry_key(name: str) -> str:
    """Store key for one task's telemetry piece."""
    return f"task-{name}"


def load_completed(
    store: CheckpointStore, name: str
) -> Optional[Tuple[Any, NullTelemetry]]:
    """A finished task's ``(result, telemetry piece)`` from the store, or
    ``None`` while the store holds no result under ``name``."""
    if not store.has("unit", name):
        return None
    key = telemetry_key(name)
    telemetry = (
        store.load("telemetry", key)
        if store.has("telemetry", key)
        else NullTelemetry()
    )
    return store.load("unit", name), telemetry


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs, shipped once at spawn."""

    fleet_dir: str
    store_root: str
    telemetry_mode: str = "off"  # "off" | "metrics" | "trace"
    sanitize: Optional[str] = None
    fault_plan: Optional[ProcessFaultPlan] = None
    #: run tracing context (trace id, span dir, epoch); None = no tracing
    trace: Optional[TraceContext] = None


def _run_task(
    task: Any,
    ctx: UnitContext,
    telemetry_mode: str,
    task_span: SpanHandle,
) -> tuple:
    """Execute (or salvage) one task; returns (result, telemetry, resumed).

    Under an enabled tracer the task's ticks are profiled into the
    tracer, and their totals become phase spans under ``task_span``
    whether the task returns or raises, so no task's seconds are left
    to the next one's span.
    """
    name, store = task.name, ctx.store
    if store is not None:
        store.refresh()
        done = load_completed(store, name)
        if done is not None:
            # completed by a worker that died before reporting, or by
            # another run sharing this store
            task_span.event("task.salvaged")
            return done[0], done[1], True
    telemetry = (
        Telemetry(mode=telemetry_mode)
        if telemetry_mode != "off"
        else NullTelemetry()
    )
    try:
        with use(telemetry):
            result = task.run(ctx)
    finally:
        current_tracer().emit_phases(task_span)
    if store is not None:
        if telemetry.enabled:
            store.save("telemetry", telemetry_key(name), telemetry)
        store.save("unit", name, result)
    return result, telemetry, False


def worker_main(
    worker_id: int,
    config: WorkerConfig,
    task_queue: Any,
    result_queue: Any,
) -> None:
    """Worker process body: drain tasks until ``("stop",)``."""
    # Ctrl-C lands on the whole process group; the supervisor owns
    # worker lifecycle, so workers must not die to a stray SIGINT.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    heartbeat = Heartbeat(os.path.join(config.fleet_dir, "hb"), worker_id)
    heartbeat.start()
    injector = FaultInjector(
        config.fault_plan, os.path.join(config.fleet_dir, "faults")
    )
    store = CheckpointStore(config.store_root)
    tracer = (
        Tracer.from_context(config.trace, proc=f"w{worker_id}")
        if config.trace is not None
        else NULL_TRACER
    )
    with use_tracer(tracer):
        while True:
            message = task_queue.get()
            if message[0] == "stop":
                break
            _, seq, task, parent_span = message
            name = task.name
            heartbeat.beat("run", job=name)
            injector.apply(name, heartbeat)
            with tracer.span(
                f"task:{name}", cat="task",
                parent=parent_span, worker=worker_id,
            ) as span:
                ctx = UnitContext(
                    name=name,
                    store=store,
                    sanitize=config.sanitize,
                    trace_parent=span.span_id,
                )
                try:
                    result, telemetry, resumed = _run_task(
                        task, ctx, config.telemetry_mode, span
                    )
                except Exception as exc:  # noqa: BLE001 - reported to supervisor
                    retryable = not isinstance(exc, NON_RETRYABLE)
                    span.end(status="fail", error=type(exc).__name__)
                    result_queue.put(
                        (
                            "fail",
                            worker_id,
                            seq,
                            name,
                            f"{type(exc).__name__}: {exc}",
                            retryable,
                        )
                    )
                else:
                    span.end(status="resumed" if resumed else "done")
                    result_queue.put(
                        (
                            "done",
                            worker_id, seq, name, result, telemetry, resumed,
                        )
                    )
            heartbeat.beat("idle")
    tracer.close()
    heartbeat.beat("stopped")
    heartbeat.stop()
