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
completed task straight from the store.  A worker killed mid-task left a
``state`` snapshot behind (tick-level checkpointing inside the task), so
the replacement worker resumes instead of restarting.

Each task runs under a **fresh** telemetry of the configured mode; the
piece ships back with the result and the supervisor folds the pieces in
canonical task order (:mod:`repro.fleet.merge`), which is what makes
telemetry independent of the executor and of scheduling.  The in-process
executor (``FleetOptions.workers=None``) calls the same :func:`_run_task`
directly, with a real ``GracefulShutdown``/``Watchdog`` on the context
where a worker has its :class:`HeartbeatPulse`.
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


class HeartbeatPulse:
    """Duck-typed stand-in for the cooperative ``Watchdog``.

    Installed as ``UnitContext.watchdog`` so resumable tick loops beat
    the heartbeat at every segment boundary — turning tick progress into
    liveness evidence.  Never raises: deadlines are the supervisor's
    job in the fleet.
    """

    def __init__(self, heartbeat: Heartbeat, job: str) -> None:
        self._heartbeat = heartbeat
        self._job = job

    def check(self) -> None:
        self._heartbeat.beat("run", job=self._job)


def _fresh_telemetry(mode: str, profile: bool, tracing: bool) -> NullTelemetry:
    """One task's telemetry recorder.

    ``profile`` keeps the tick profiler when telemetry is on; tracing
    always needs one, to synthesize per-tick phase spans — for
    ``mode == "off"`` that means a *shadow* telemetry the caller must
    discard after the profiler is read: it exists only to feed the
    trace, never the store or the merge.
    """
    if mode != "off":
        return Telemetry(mode=mode, profile=profile or tracing)
    return Telemetry(mode="metrics", profile=True) if tracing else NullTelemetry()


def _run_task(
    task: Any,
    ctx: UnitContext,
    telemetry_mode: str,
    task_span: SpanHandle,
    profile: bool,
) -> tuple:
    """Execute (or salvage) one task; returns (result, telemetry, resumed).

    ``profile`` keeps the piece's tick profiler even without tracing:
    the in-process executor sets it (its pieces are never pickled, so
    their wall-time totals reach the merged ``profile`` export); a spawn
    worker's would pickle away to empty, so it profiles only to feed the
    tracer's phase spans.
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
    tracer = current_tracer()
    telemetry = _fresh_telemetry(telemetry_mode, profile, tracer.enabled)
    with use(telemetry):
        result = task.run(ctx)
    if telemetry.profiler is not None:
        tracer.emit_phases(task_span, telemetry.profiler.totals_seconds)
    if telemetry_mode == "off":
        # a shadow recorder existed only for the profiler above; the
        # caller asked for telemetry off, so ship (and store) none
        telemetry = NullTelemetry()
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
                    watchdog=HeartbeatPulse(heartbeat, name),  # type: ignore[arg-type]
                    sanitize=config.sanitize,
                    trace_parent=span.span_id,
                )
                try:
                    result, telemetry, resumed = _run_task(
                        task, ctx, config.telemetry_mode, span, profile=False
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
