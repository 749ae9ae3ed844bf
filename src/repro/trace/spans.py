"""Span emission: tracers, span handles, and cross-process context.

The tracing facade mirrors :mod:`repro.telemetry`: a disabled
:class:`NullTracer` singleton is the default and the common interface,
:class:`Tracer` is the enabled subclass, and instrumentation sites read
the module-level *current* tracer via :func:`current_tracer` /
:func:`use_tracer`.  Hot paths guard on the single ``enabled`` attribute.

Each process appends newline-delimited JSON records to its own span
file (``spans-main.jsonl`` for the supervisor, ``spans-w3.jsonl`` for
fleet worker 3) inside a shared trace directory; every record is flushed
as it is written, so a SIGKILLed worker leaves at most one torn trailing
line for :mod:`repro.trace.merge` to salvage.  Cross-process causality
travels the other way: the supervisor packs a :class:`TraceContext`
(trace id, directory, epoch, parent span id) into worker config / task
payloads, and the worker parents its root spans under the supervisor's
span ids.

Design invariants, inherited from the telemetry layer and enforced by
flocheck (FLC001/FLC011/FLC012):

* **Observation only.**  Spans carry wall-clock data, so no span, tracer,
  or timestamp may ever reach a run digest, a checkpoint, or a simulated
  quantity.  A pickled :class:`Tracer` round-trips *disabled and empty*
  (like ``TickProfiler.__getstate__``), so objects that accidentally hold
  one cannot smuggle timings into persisted state.
* **Clock containment.**  All clock reads live in
  :mod:`repro.trace.clock`; this module only ever handles the floats it
  returns.
* **Text sinks only.**  Span records are JSONL text — never pickled —
  so trace output can never be mistaken for (or folded into) run state.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import TracebackType
from typing import Any, Dict, Iterator, Optional, Type

from ..errors import ConfigError
from .clock import since, wall_now

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "SpanHandle",
    "TraceContext",
    "Tracer",
    "current_tracer",
    "use_tracer",
]


@dataclass(frozen=True)
class TraceContext:
    """Everything a child process needs to join an ongoing trace.

    Frozen and made of primitives so it rides through spawn pickles and
    task payload tuples unchanged.  ``parent_span_id`` is the span in the
    *sending* process that causally precedes the receiver's root span
    (e.g. the supervisor's ``task:fig13[0/2]`` span for a fleet worker's
    execution of that task).
    """

    trace_id: str
    trace_dir: str
    epoch: float
    parent_span_id: Optional[str] = None

    def with_parent(self, parent_span_id: Optional[str]) -> "TraceContext":
        return TraceContext(
            trace_id=self.trace_id,
            trace_dir=self.trace_dir,
            epoch=self.epoch,
            parent_span_id=parent_span_id,
        )


class SpanHandle:
    """One open span; close it with :meth:`end` or a ``with`` block.

    Handles are context managers for the common lexically-scoped case;
    long-lived spans (a fleet task span that opens in ``_assign`` and
    closes in ``drain_results``) are stored on their owner and closed
    explicitly — FLC012 accepts both shapes, but a handle that is simply
    dropped is a leak the merge layer will report as *truncated*.

    A handle without a tracer (``tracer=None``) is the shared no-op the
    disabled :class:`NullTracer` hands out: every method returns
    immediately, so call sites never branch on enablement.
    """

    __slots__ = ("span_id", "name", "start_ts", "_tracer", "_closed")

    def __init__(
        self,
        tracer: Optional["Tracer"],
        span_id: Optional[str],
        name: str,
        start_ts: float,
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.name = name
        self.start_ts = start_ts
        self._closed = False

    def end(self, **args: Any) -> None:
        """Close the span (idempotent: double-ends are dropped)."""
        if self._tracer is None or self._closed:
            return
        self._closed = True
        if self.span_id is not None:
            self._tracer._end_span(self.span_id, args)

    def event(self, name: str, **args: Any) -> None:
        """Emit an instant event parented under this span."""
        if self._tracer is None:
            return
        self._tracer.event(name, parent=self.span_id, **args)

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc_type is not None:
            self.end(error=exc_type.__name__)
        else:
            self.end()


#: The one disabled handle; its ``end`` guards on ``_tracer is None``,
#: so sharing a singleton is safe.
_NULL_SPAN = SpanHandle(None, None, "", 0.0)


class NullTracer:
    """Disabled tracer: the no-op fast path and the common interface.

    Instrumentation sites guard hot loops on :attr:`enabled` and may call
    every method below unconditionally on cold paths.
    """

    def __init__(self) -> None:
        self.enabled: bool = False
        self.proc: str = "off"

    # -- span entry points (no-ops when disabled) -----------------------
    def span(
        self, name: str, cat: str = "run", parent: Optional[str] = None, **args: Any
    ) -> SpanHandle:
        """Open a span; close via the returned handle (``with`` works)."""
        return _NULL_SPAN

    def event(
        self, name: str, cat: str = "run", parent: Optional[str] = None, **args: Any
    ) -> None:
        """Emit an instant (zero-duration) event."""

    def emit_complete(
        self,
        name: str,
        start_ts: float,
        duration: float,
        cat: str = "run",
        parent: Optional[str] = None,
        **args: Any,
    ) -> None:
        """Emit a pre-measured complete span (begin and end in one record)."""

    def emit_phases(
        self, parent: Any, phases: Dict[str, float], cat: str = "phase"
    ) -> None:
        """Synthesize per-phase child spans from profiler totals."""

    # -- propagation / lifecycle ----------------------------------------
    def context(self, parent: Any = None) -> Optional[TraceContext]:
        """A :class:`TraceContext` for child processes (None if disabled)."""
        return None

    def close(self) -> None:
        """Flush and close the sink (idempotent)."""


class Tracer(NullTracer):
    """Enabled tracer writing one JSONL span file for this process."""

    def __init__(
        self,
        trace_dir: str,
        proc: str = "main",
        trace_id: Optional[str] = None,
        epoch: Optional[float] = None,
    ) -> None:
        super().__init__()
        if not proc or "/" in proc or ":" in proc:
            raise ConfigError(f"tracer proc must be a plain label, got {proc!r}")
        self.enabled = True
        self.proc = proc
        self.trace_dir = str(trace_dir)
        self.epoch = wall_now() if epoch is None else float(epoch)
        self.trace_id = trace_id if trace_id is not None else f"trace-{self.proc}"
        self._seq = 0
        self._fh: Optional[Any] = None
        self._lock = threading.Lock()

    @classmethod
    def from_context(cls, ctx: TraceContext, proc: str) -> "Tracer":
        """Join the trace described by ``ctx`` from a child process."""
        return cls(
            ctx.trace_dir, proc=proc, trace_id=ctx.trace_id, epoch=ctx.epoch
        )

    # -- sink -----------------------------------------------------------
    @property
    def path(self) -> Path:
        return Path(self.trace_dir) / f"spans-{self.proc}.jsonl"

    def _emit(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self._lock:
            if self._fh is None:
                Path(self.trace_dir).mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "a", encoding="utf-8")
                self._fh.write(
                    json.dumps(
                        {
                            "ph": "M",
                            "proc": self.proc,
                            "trace": self.trace_id,
                            "epoch": self.epoch,
                        },
                        sort_keys=True,
                        separators=(",", ":"),
                    )
                    + "\n"
                )
            self._fh.write(line + "\n")
            # flush per record: a SIGKILL costs at most one torn line
            self._fh.flush()

    def _next_id(self) -> str:
        with self._lock:
            self._seq += 1
            return f"{self.proc}:{self._seq}"

    def _ts(self) -> float:
        return round(since(self.epoch), 6)

    # -- span entry points ----------------------------------------------
    def span(
        self, name: str, cat: str = "run", parent: Optional[str] = None, **args: Any
    ) -> SpanHandle:
        span_id = self._next_id()
        ts = self._ts()
        self._emit(
            {
                "ph": "B",
                "ts": ts,
                "span": span_id,
                "parent": parent,
                "name": name,
                "cat": cat,
                "proc": self.proc,
                "args": args,
            }
        )
        return SpanHandle(self, span_id, name, ts)

    def _end_span(self, span_id: str, args: Dict[str, Any]) -> None:
        self._emit({"ph": "E", "ts": self._ts(), "span": span_id, "args": args})

    def event(
        self, name: str, cat: str = "run", parent: Optional[str] = None, **args: Any
    ) -> None:
        self._emit(
            {
                "ph": "i",
                "ts": self._ts(),
                "span": self._next_id(),
                "parent": parent,
                "name": name,
                "cat": cat,
                "proc": self.proc,
                "args": args,
            }
        )

    def emit_complete(
        self,
        name: str,
        start_ts: float,
        duration: float,
        cat: str = "run",
        parent: Optional[str] = None,
        **args: Any,
    ) -> None:
        self._emit(
            {
                "ph": "X",
                "ts": round(start_ts, 6),
                "dur": round(max(0.0, duration), 6),
                "span": self._next_id(),
                "parent": parent,
                "name": name,
                "cat": cat,
                "proc": self.proc,
                "args": args,
            }
        )

    def emit_phases(
        self, parent: Any, phases: Dict[str, float], cat: str = "phase"
    ) -> None:
        """Lay profiler phase totals out as child spans of ``parent``.

        The profiler only knows *totals* per subsystem, not when each
        tick phase ran, so the synthesized spans are placed back to back
        from the parent's start, shortest first.  Ascending order makes
        the largest phase the last finisher, which is exactly what the
        critical-path walk should pick when the parent's own wall time is
        dominated by that phase.
        """
        if not phases:
            return
        if not isinstance(parent, SpanHandle):
            return
        cursor = parent.start_ts
        for name, seconds in sorted(
            phases.items(), key=lambda kv: (kv[1], kv[0])
        ):
            if seconds <= 0.0:
                continue
            self.emit_complete(
                name,
                cursor,
                seconds,
                cat=cat,
                parent=parent.span_id,
                synthetic=True,
            )
            cursor += seconds

    # -- propagation / lifecycle ----------------------------------------
    def context(self, parent: Any = None) -> TraceContext:
        parent_id: Optional[str] = None
        if isinstance(parent, SpanHandle):
            parent_id = parent.span_id
        elif isinstance(parent, str):
            parent_id = parent
        return TraceContext(
            trace_id=self.trace_id,
            trace_dir=self.trace_dir,
            epoch=self.epoch,
            parent_span_id=parent_id,
        )

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # Wall-clock data must never reach a checkpoint or digest: pickling a
    # tracer yields a *disabled* empty shell (same contract as
    # TickProfiler.__getstate__), so any object that accidentally holds a
    # tracer still checkpoints byte-identically with tracing on or off.
    # __reduce__ reconstructs a plain NullTracer so the revived object has
    # no file handle, lock, or span counter at all; __getstate__ stays as
    # the documented empty-payload contract for anything that bypasses it.
    def __reduce__(self):
        return (NullTracer, ())

    def __getstate__(self) -> Dict[str, Any]:
        return {}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        NullTracer.__init__(self)


#: Shared disabled singleton; instrumentation sites default to this.
NULL_TRACER = NullTracer()

_current_tracer: NullTracer = NULL_TRACER


def current_tracer() -> NullTracer:
    """The tracer instrumentation sites attach to."""
    return _current_tracer


@contextmanager
def use_tracer(tracer: NullTracer) -> Iterator[NullTracer]:
    """Install ``tracer`` as current for the duration of a block."""
    global _current_tracer
    previous = _current_tracer
    _current_tracer = tracer  # flocheck: disable=FLC009 -- process-local install mirroring telemetry.use: each process rebinds its own tracer and all output goes to its own span file
    try:
        yield tracer
    finally:
        _current_tracer = previous
