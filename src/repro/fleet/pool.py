"""The scheduler: every ``repro run`` / ``repro chaos`` task goes through here.

:func:`run_fleet` owns everything supervision means — pre-salvage from
the store, retry/backoff, deadline, SIGTERM stop, per-task outcome rows,
status derivation, the ``fleet`` → ``task:<name>`` span family and the
canonical-order telemetry fold — and has two executors for the tasks
themselves, both calling the same :func:`repro.fleet.worker._run_task`:

* ``FleetOptions.workers=None`` — **in-process**: the earliest ready
  task runs in the calling process, from start to finish; a SIGTERM or
  an expired deadline stops the run before the next task starts (and a
  task that raises ``Interrupted``/``DeadlineExceeded`` itself ends the
  run as ``interrupted``/``deadline``).  No store is required and no
  ``fleet/`` directory is written.
* ``workers=N`` — a **spawn pool**: N shared-nothing worker processes,
  each with a private task queue, all reporting into one result queue.
  The supervision loop then also

  1. drains worker reports (``done``/``fail``);
  2. convicts dead or hung workers — *dead* when the process has an exit
     code, *hung* when its heartbeat file has not changed for
     ``heartbeat_timeout_seconds`` (hung workers are SIGKILLed, which
     turns them into dead ones);
  3. for each dead worker salvages its task (if the shared store already
     holds the completed unit, the worker died in the report window —
     the result is loaded, nothing re-runs), otherwise counts the death
     against the task and either re-enqueues it (a replacement worker
     runs it again from its recipe) or quarantines it once it has
     killed ``max_worker_deaths`` distinct workers;
  4. replaces dead workers with fresh processes (worker ids are never
     reused, so "distinct workers killed" is well-defined);
  5. assigns ready tasks — including ``RetryPolicy``-delayed retries —
     to idle workers.

Determinism: results are keyed by task name and every task is a pure
function of its recipe, so neither the executor nor scheduling can
change them; telemetry pieces are folded in canonical task order by
:mod:`repro.fleet.merge`.  A ``FleetReport`` is therefore the same byte
for byte whatever the worker count, scheduling interleaving, or mid-run
worker deaths.  The scheduler knows nothing about what it runs: a task
is anything with a ``name`` and a ``run(ctx)``, and tasks never talk to
each other.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import tempfile
import time
from queue import Empty
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import CheckpointError, ConfigError, DeadlineExceeded, Interrupted
from ..runner.checkpoint import CheckpointStore
from ..runner.supervisor import (
    GracefulShutdown,
    RetryPolicy,
    UnitContext,
    Watchdog,
)
from ..telemetry import NullTelemetry
from ..trace import SpanHandle, current_tracer
from .faults import ProcessFaultPlan
from .heartbeat import HEARTBEAT_INTERVAL_SECONDS, HeartbeatMonitor
from .merge import merge_telemetry
from .worker import WorkerConfig, _run_task, load_completed, worker_main

__all__ = [
    "FLEET_STATUSES",
    "FleetOptions",
    "FleetReport",
    "TaskOutcome",
    "run_fleet",
]

#: Run statuses from best to worst (``quarantined``: a poison job was
#: isolated by the spawn pool).
FLEET_STATUSES = (
    "ok", "partial", "failed", "quarantined", "deadline", "interrupted",
)

#: How long one spawn-pool supervision sweep waits for worker reports.
POLL_INTERVAL_SECONDS = 0.05


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name)


def _null_log(message: str) -> None:
    """Default no-op log sink (module-level for picklability parity)."""


@dataclass
class FleetOptions:
    """Supervision knobs for one run."""

    #: ``None`` runs every task in the calling process; N >= 1 runs them
    #: on a spawn pool of N workers
    workers: Optional[int] = None
    telemetry_mode: str = "off"
    sanitize: Optional[str] = None
    retry: Optional[RetryPolicy] = None
    deadline_seconds: Optional[float] = None
    heartbeat_timeout_seconds: float = 30.0
    max_worker_deaths: int = 2
    fault_plan: Optional[ProcessFaultPlan] = None

    def validate(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.max_worker_deaths < 1:
            raise ConfigError(
                f"max_worker_deaths must be >= 1, got {self.max_worker_deaths}"
            )
        timeout = self.heartbeat_timeout_seconds
        if not (math.isfinite(timeout) and timeout > HEARTBEAT_INTERVAL_SECONDS):
            raise ConfigError(
                "heartbeat_timeout_seconds must be finite and exceed the "
                f"{HEARTBEAT_INTERVAL_SECONDS}s beat interval, got {timeout}"
            )
        if self.workers is None and self.fault_plan is not None:
            raise ConfigError(
                "process faults kill or stall spawn workers; they need "
                "workers >= 1, not the in-process executor"
            )


@dataclass
class TaskOutcome:
    """What happened to one task."""

    name: str
    status: str  # "done" | "resumed" | "failed" | "quarantined"
    attempts: int = 0
    error: Optional[str] = None
    seconds: float = 0.0
    worker_deaths: int = 0


@dataclass
class FleetReport:
    """Outcome of one run: per-task outcome rows, results by task name,
    the merged telemetry, and (for a spawn pool) supervision facts."""

    status: str
    outcomes: List[TaskOutcome] = field(default_factory=list)
    results: Dict[str, Any] = field(default_factory=dict)
    telemetry: NullTelemetry = field(default_factory=NullTelemetry)
    quarantined: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers_spawned: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def completed(self) -> List[str]:
        return [o.name for o in self.outcomes if o.status in ("done", "resumed")]

    def failed(self) -> List[str]:
        return [
            o.name for o in self.outcomes
            if o.status in ("failed", "quarantined")
        ]

    def summary_rows(self) -> List[Tuple[str, str, int, str]]:
        return [
            (o.name, o.status, o.attempts, o.error or "")
            for o in self.outcomes
        ]


class _Worker:
    """Supervisor-side handle for one worker process."""

    def __init__(self, worker_id: int, process: Any, queue: Any) -> None:
        self.id = worker_id
        self.process = process
        self.queue = queue
        self.assigned: Optional[Tuple[int, Any, int]] = None
        # (seq, task, attempt)

    @property
    def idle(self) -> bool:
        return self.assigned is None


class _FleetRun:
    """One run's mutable supervision state (no module globals: spawn
    workers share nothing, and FLC007 enforces that stays true)."""

    def __init__(
        self,
        tasks: Sequence[Any],
        store: Optional[CheckpointStore],
        options: FleetOptions,
        log: Callable[[str], None],
    ) -> None:
        options.validate()
        self.tasks = list(tasks)
        if len({task.name for task in self.tasks}) != len(self.tasks):
            raise ConfigError("fleet task names must be unique")
        if options.workers is not None and store is None:
            raise ConfigError(
                "a spawn pool needs a checkpoint store: results, telemetry "
                "pieces and heartbeats all live in it"
            )
        self.store = store
        self.options = options
        self.log = log
        self.retry = options.retry if options.retry is not None else RetryPolicy()
        self.workers: Dict[int, _Worker] = {}
        self.next_worker_id = 0
        self.next_seq = 0
        self.inflight: Dict[int, Tuple[Any, int]] = {}  # seq -> (task, attempt)
        self.ready: List[Tuple[float, int, Any, int]] = []  # heap
        self.outcomes: Dict[str, TaskOutcome] = {}
        self.results: Dict[str, Any] = {}
        self.pieces: Dict[str, NullTelemetry] = {}
        self.deaths: Dict[str, Set[int]] = {}
        self.started: Dict[str, float] = {}
        self.workers_spawned = 0
        # supervisor-side spans: one per task, opened at first assignment
        # and closed when the task reaches an outcome; stored here (not
        # in a `with` block) because open and close live in different
        # supervision sweeps
        self.tracer = current_tracer()
        self.fleet_span: Optional[SpanHandle] = None
        self.task_spans: Dict[str, SpanHandle] = {}

    # -- worker lifecycle ----------------------------------------------
    def _open_pool(self) -> None:
        """Everything only a spawn pool needs (and only it may import)."""
        from multiprocessing import get_context

        assert self.store is not None
        self.fleet_dir = os.path.join(self.store.root, "fleet")
        os.makedirs(os.path.join(self.fleet_dir, "hb"), exist_ok=True)
        self.monitor = HeartbeatMonitor(
            os.path.join(self.fleet_dir, "hb"),
            timeout_seconds=self.options.heartbeat_timeout_seconds,
        )
        self.ctx = get_context("spawn")
        self.result_queue = self.ctx.Queue()
        self.config = WorkerConfig(
            fleet_dir=self.fleet_dir,
            store_root=self.store.root,
            telemetry_mode=self.options.telemetry_mode,
            sanitize=self.options.sanitize,
            fault_plan=self.options.fault_plan,
            trace=self.tracer.context() if self.tracer.enabled else None,
        )

    def _fleet_span_id(self) -> Optional[str]:
        return self.fleet_span.span_id if self.fleet_span is not None else None

    def spawn_worker(self) -> _Worker:
        worker_id = self.next_worker_id
        self.next_worker_id += 1
        queue = self.ctx.Queue()
        process = self.ctx.Process(
            target=worker_main,
            args=(worker_id, self.config, queue, self.result_queue),
            name=f"fleet-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        self.tracer.event(
            "spawn-worker", cat="fleet",
            parent=self._fleet_span_id(), worker=worker_id,
        )
        self.workers_spawned += 1
        worker = _Worker(worker_id, process, queue)
        self.workers[worker_id] = worker
        self.monitor.observe(worker_id)
        return worker

    def start_workers(self) -> None:
        self._open_pool()
        for _ in range(min(self.options.workers or 1, len(self.tasks))):
            self.spawn_worker()

    def stop_workers(self, force: bool = False) -> None:
        for worker in self.workers.values():
            if force:
                # mid-task workers won't drain their queue; SIGTERM them
                # (their tasks re-run from their recipes on --resume)
                worker.process.terminate()
            else:
                try:
                    worker.queue.put(("stop",))
                except (OSError, ValueError):
                    pass
        for worker in self.workers.values():
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
            self.monitor.forget(worker.id)

    # -- task flow ------------------------------------------------------
    def enqueue(self, task: Any, attempt: int, at: float) -> None:
        self.next_seq += 1
        heapq.heappush(self.ready, (at, self.next_seq, task, attempt))

    def _begin(self, task: Any, attempt: int, worker: Optional[int]) -> SpanHandle:
        """Note one attempt starting; returns the task's span."""
        self.started.setdefault(task.name, time.monotonic())
        span = self.task_spans.get(task.name)
        if span is None:
            # the task span survives retries, worker deaths and
            # reassignments: it covers first assignment to final outcome,
            # with the execution spans parented under it
            span = self.tracer.span(
                f"task:{task.name}", cat="task", parent=self._fleet_span_id()
            )
            self.task_spans[task.name] = span
        span.event("assign", worker=worker, attempt=attempt)
        return span

    def _assign(self, worker: _Worker, task: Any, attempt: int) -> None:
        self.next_seq += 1
        seq = self.next_seq
        worker.assigned = (seq, task, attempt)
        self.inflight[seq] = (task, attempt)
        span = self._begin(task, attempt, worker.id)
        try:
            worker.queue.put(("task", seq, task, span.span_id))
        except (OSError, ValueError):
            # queue to a dying worker; liveness sweep will reassign
            pass

    def run_inline(self) -> Optional[str]:
        """The in-process executor: run the earliest ready task here.

        Returns the run status to stop with when the task unwound on a
        job-level condition, else ``None``.
        """
        at, _, task, attempt = heapq.heappop(self.ready)
        span = self._begin(task, attempt, worker=None)
        wait = at - time.monotonic()
        if wait > 0:  # only a retry's backoff is ever in the future
            with self.tracer.span(
                "retry.wait", cat="retry", parent=span.span_id,
                attempt=attempt - 1,
            ):
                time.sleep(wait)
        ctx = UnitContext(
            name=task.name,
            store=self.store,
            sanitize=self.options.sanitize,
            trace_parent=span.span_id,
        )
        try:
            result, telemetry, resumed = _run_task(
                task, ctx, self.options.telemetry_mode, span
            )
        except (DeadlineExceeded, Interrupted) as exc:
            self.log(f"{task.name}: {exc}")
            return "deadline" if isinstance(exc, DeadlineExceeded) else "interrupted"
        except Exception as exc:  # noqa: BLE001 - becomes the task's outcome
            self.attempt_failed(
                task, attempt, f"{type(exc).__name__}: {exc}",
                self.retry.retryable(exc),
            )
        else:
            self.record_done(task.name, result, telemetry, resumed, attempt)
        return None

    def _end_task_span(self, name: str, status: str) -> None:
        span = self.task_spans.pop(name, None)
        if span is not None:
            span.end(status=status)

    def assign_ready(self) -> None:
        now = time.monotonic()
        idle = [w for w in self.workers.values() if w.idle]
        while idle and self.ready and self.ready[0][0] <= now:
            _, _, task, attempt = heapq.heappop(self.ready)
            self._assign(idle.pop(), task, attempt)

    def _finish(self, outcome: TaskOutcome) -> None:
        outcome.worker_deaths = len(self.deaths.get(outcome.name, ()))
        started = self.started.get(outcome.name)
        if started is not None and outcome.seconds <= 0.0:
            outcome.seconds = time.monotonic() - started
        self.outcomes[outcome.name] = outcome

    def record_done(
        self, name: str, result: Any, telemetry: NullTelemetry,
        resumed: bool, attempts: int,
    ) -> None:
        if name in self.outcomes:
            return  # duplicate report (salvaged before the message landed)
        self.results[name] = result
        self.pieces[name] = telemetry
        self._finish(
            TaskOutcome(
                name=name,
                status="resumed" if resumed else "done",
                attempts=attempts,
            )
        )
        self._end_task_span(name, "resumed" if resumed else "done")
        self.log(f"{name}: {'resumed' if resumed else 'done'}")

    def record_failed(self, name: str, attempts: int, error: str) -> None:
        if name in self.outcomes:
            return
        self._finish(
            TaskOutcome(
                name=name, status="failed", attempts=attempts, error=error
            )
        )
        self._end_task_span(name, "failed")
        self.log(f"{name}: failed after {attempts} attempt(s): {error}")

    def attempt_failed(
        self, task: Any, attempt: int, error: str, retryable: bool
    ) -> None:
        """One attempt raised: schedule the retry or record the failure."""
        if retryable and attempt <= self.retry.max_retries:
            delay = self.retry.backoff(task.name, attempt)
            self.log(
                f"{task.name}: attempt {attempt} failed ({error}); "
                f"retrying in {delay:.2f}s"
            )
            self.enqueue(task, attempt + 1, time.monotonic() + delay)
        else:
            self.record_failed(task.name, attempt, error)

    def quarantine(self, task: Any, attempts: int) -> None:
        name = task.name
        if name in self.outcomes:
            return
        directory = os.path.join(self.fleet_dir, "quarantine")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"quarantine-{_slug(name)}.json")
        payload: Dict[str, Any] = {
            "task": name,
            "type": type(task).__name__,
            "attempts": attempts,
            "worker_deaths": sorted(self.deaths.get(name, ())),
            "recipe": _recipe_of(task),
        }
        # reproducers are read by humans and re-run tooling while the
        # supervisor may still be crashing; never expose a torn file
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        os.replace(tmp, path)
        self._finish(
            TaskOutcome(
                name=name,
                status="quarantined",
                attempts=attempts,
                error=(
                    f"poison job: killed {len(self.deaths.get(name, ()))} "
                    f"workers; reproducer at {path}"
                ),
            )
        )
        self._end_task_span(name, "quarantined")
        self.log(f"{name}: quarantined (reproducer: {path})")

    def salvage_or_requeue(self, worker: _Worker) -> None:
        """A worker died holding a task: salvage, requeue, or quarantine."""
        assert worker.assigned is not None and self.store is not None
        seq, task, attempt = worker.assigned
        self.inflight.pop(seq, None)
        name = task.name
        self.store.refresh()
        done = load_completed(self.store, name)
        if done is not None:
            # died after persisting the result but before reporting it
            self.record_done(name, *done, resumed=False, attempts=attempt)
            return
        dead = self.deaths.setdefault(name, set())
        dead.add(worker.id)
        span = self.task_spans.get(name)
        if span is not None:
            span.event("worker-died", worker=worker.id, deaths=len(dead))
        if len(dead) >= self.options.max_worker_deaths:
            self.quarantine(task, attempts=attempt)
            return
        self.log(
            f"{name}: worker {worker.id} died mid-task; requeueing "
            f"(death {len(dead)}/{self.options.max_worker_deaths})"
        )
        self.enqueue(task, attempt, at=time.monotonic())

    # -- supervision sweeps --------------------------------------------
    def drain_results(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            try:
                if remaining > 0:
                    message = self.result_queue.get(timeout=remaining)
                else:
                    message = self.result_queue.get_nowait()
            except (Empty, OSError, ValueError):
                return
            kind = message[0]
            if kind == "done":
                _, worker_id, seq, name, result, telemetry, resumed = message
                self._release(worker_id, seq)
                task_attempt = self.inflight.pop(seq, None)
                attempts = task_attempt[1] if task_attempt else 1
                self.record_done(name, result, telemetry, resumed, attempts)
            elif kind == "fail":
                _, worker_id, seq, _, error, retryable = message
                self._release(worker_id, seq)
                task_attempt = self.inflight.pop(seq, None)
                if task_attempt is not None:
                    self.attempt_failed(*task_attempt, error, retryable)
            if remaining <= 0:
                return

    def _release(self, worker_id: int, seq: int) -> None:
        worker = self.workers.get(worker_id)
        if worker is not None and worker.assigned is not None:
            if worker.assigned[0] == seq:
                worker.assigned = None

    def sweep_liveness(self) -> None:
        for worker in list(self.workers.values()):
            hung = False
            if worker.process.exitcode is None:
                if not self.monitor.stale(worker.id):
                    continue
                hung = True
                self.log(f"worker {worker.id}: heartbeat stale; sending SIGKILL")
                worker.process.kill()
                worker.process.join(timeout=5.0)
            # dead (either found dead, or just killed for hanging)
            exitcode = worker.process.exitcode
            self.log(
                f"worker {worker.id}: dead (exitcode {exitcode}"
                + (", hung" if hung else "")
                + ")"
            )
            if worker.assigned is not None:
                self.salvage_or_requeue(worker)
            del self.workers[worker.id]
            self.monitor.forget(worker.id)
            if self.unfinished():
                self.spawn_worker()

    def unfinished(self) -> bool:
        return len(self.outcomes) < len(self.tasks)

    # -- final assembly -------------------------------------------------
    def report(self, status_override: Optional[str], wall: float) -> FleetReport:
        ordered = [
            self.outcomes[task.name]
            for task in self.tasks
            if task.name in self.outcomes
        ]
        quarantined = [o.name for o in ordered if o.status == "quarantined"]
        if status_override is not None:
            status = status_override
        elif quarantined:
            status = "quarantined"
        else:
            done = [o for o in ordered if o.status in ("done", "resumed")]
            bad = [o for o in ordered if o.status == "failed"]
            if not bad:
                status = "ok"
            elif done:
                status = "partial"
            else:
                status = "failed"
        # tasks the run abandoned (deadline/interrupt) still hold open
        # supervisor-side spans; close them so the merged timeline is
        # truncation-free even on unclean exits
        for name in sorted(self.task_spans):
            self._end_task_span(name, status_override or "abandoned")
        # task order, not completion order: the fold is what makes the
        # export independent of scheduling
        fold = [
            self.pieces[task.name]
            for task in self.tasks
            if task.name in self.pieces
        ]
        with self.tracer.span(
            "merge.telemetry", cat="run", parent=self._fleet_span_id(),
            pieces=len(fold),
        ):
            telemetry = merge_telemetry(fold)
        if self.fleet_span is not None:
            self.fleet_span.end(status=status, workers=self.workers_spawned)
        return FleetReport(
            status=status,
            outcomes=ordered,
            results=dict(self.results),
            telemetry=telemetry,
            quarantined=quarantined,
            wall_seconds=wall,
            workers_spawned=self.workers_spawned,
        )


def _recipe_of(task: Any) -> Dict[str, Any]:
    import dataclasses

    if dataclasses.is_dataclass(task):
        return dataclasses.asdict(task)
    return {"repr": repr(task)}


def run_fleet(
    tasks: Sequence[Any],
    store: Optional[CheckpointStore] = None,
    options: Optional[FleetOptions] = None,
    log: Optional[Callable[[str], None]] = None,
    fingerprint: Optional[Dict[str, Any]] = None,
) -> FleetReport:
    """Run ``tasks`` under supervision — in this process or on a spawn
    pool, per ``options.workers`` — and return the :class:`FleetReport`,
    the same whichever executor ran them and whatever happened to the
    workers along the way.

    With a ``store``, ``fingerprint`` pins the job the store belongs to
    (a mismatch is a :class:`~repro.errors.CheckpointError`) and tasks
    the store already completed are loaded, never re-run.
    """
    options = options if options is not None else FleetOptions()
    run = _FleetRun(tasks, store, options, log if log is not None else _null_log)
    watchdog = (
        Watchdog(options.deadline_seconds)
        if options.deadline_seconds is not None
        else None
    )
    if store is not None:
        if fingerprint is not None:
            store.check_job(fingerprint)
        store.refresh()
        if options.telemetry_mode != "off" and store.has("telemetry", "registry"):
            raise CheckpointError(
                f"checkpoint store {store.root} was written by a release "
                "that kept one job-level telemetry snapshot "
                "('telemetry/registry') instead of per-task pieces; the "
                "units it completed have no pieces to fold, so resuming "
                "with telemetry on would export part of the stream. "
                "Resume without --telemetry, or restart the job with "
                "--checkpoint-dir"
            )
    run.fleet_span = run.tracer.span(
        "fleet", cat="job", workers=options.workers, tasks=len(run.tasks)
    )
    started = time.monotonic()
    status_override: Optional[str] = None
    try:
        for task in run.tasks:
            # pre-salvage: anything this store already completed never
            # reaches an executor
            done = load_completed(store, task.name) if store is not None else None
            if done is not None:
                run.record_done(task.name, *done, resumed=True, attempts=0)
            else:
                run.enqueue(task, attempt=1, at=started)
        with GracefulShutdown() as shutdown:
            try:
                if run.unfinished() and options.workers is not None:
                    run.start_workers()
                while run.unfinished() and status_override is None:
                    if shutdown.requested:
                        status_override = "interrupted"
                    elif watchdog is not None and watchdog.expired:
                        status_override = "deadline"
                    elif options.workers is None:
                        status_override = run.run_inline()
                    else:
                        run.assign_ready()
                        run.drain_results(POLL_INTERVAL_SECONDS)
                        run.sweep_liveness()
                if status_override is not None:
                    run.log(f"run {status_override}; stopping")
            finally:
                # mid-task workers won't drain their queue: force
                run.stop_workers(force=status_override is not None)
        return run.report(status_override, time.monotonic() - started)
    finally:
        run.fleet_span.end()
