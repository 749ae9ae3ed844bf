"""Cross-process span tracing for the execution fabric.

Where :mod:`repro.telemetry` answers *what did the simulation decide*
(tick-keyed metrics and decision events, digest-safe by construction),
this package answers *where did the wall clock go*: spans covering the
scheduler, fleet pool workers, retry backoff, chaos campaign jobs, and
the per-tick engine/fluid phases.  Those come from the tick profiler an
enabled :class:`Tracer` owns
(:class:`~repro.telemetry.profiler.TickProfiler`, read by both
simulators through :func:`current_tracer`): its totals become one
task's phase spans, so ``--trace`` alone answers where the time went
and telemetry never reads a clock.

Layout::

    clock.py     the only wall-clock reads in the package (FLC001 exempt)
    spans.py     Tracer / NullTracer / SpanHandle / TraceContext,
                 per-process JSONL span sinks, current_tracer()/use_tracer()
    merge.py     deterministic canonical-order merge + torn-file salvage
    analysis.py  critical path, self/total rollups, phase attribution
    export.py    Chrome trace-event / Perfetto JSON + ASCII reports

The cardinal rule, shared with the tick profiler and enforced by
flocheck (FLC001 scope + FLC012 span hygiene): wall-clock data flows
*one way*, out to JSONL span files — never into run digests, checkpoint
pickles, or simulated quantities.  Run digests are byte-identical with
tracing on or off (regression-locked in ``tests/trace``).
"""

from __future__ import annotations

from .analysis import TraceAnalysis, analyze, critical_path
from .export import ascii_timeline, chrome_trace, render_report, write_chrome_trace
from .merge import MergedTrace, Span, merge_trace
from .spans import (
    NULL_TRACER,
    NullTracer,
    SpanHandle,
    TraceContext,
    Tracer,
    current_tracer,
    use_tracer,
)

__all__ = [
    "MergedTrace",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanHandle",
    "TraceAnalysis",
    "TraceContext",
    "Tracer",
    "analyze",
    "ascii_timeline",
    "chrome_trace",
    "critical_path",
    "current_tracer",
    "merge_trace",
    "render_report",
    "use_tracer",
    "write_chrome_trace",
]
