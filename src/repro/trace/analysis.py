"""Where did the wall clock go: rollups, critical path, phases.

Works on a :class:`~repro.trace.merge.MergedTrace` and never re-reads
the host clock — everything here is arithmetic over already-recorded
timestamps, so the module stays out of the FLC001 wall-clock allowlist.

Three views:

* **Rollups** — per ``(cat, name)`` total time, *self* time (total minus
  time covered by child spans), and count.  Self time is what makes a
  phase table honest: a ``unit`` span that spends 95% of its life inside
  ``checkpoint.save`` children has almost no self time.
* **Critical path** — the last-finisher walk through the span DAG: from
  the latest-ending root, repeatedly descend into the child that ends
  last.  Across the fleet DAG this surfaces the chain of spans that
  actually bounded the run's wall clock (the slowest worker's last
  task, the retry that pushed a unit past the others, ...).
* **Phase attribution** — buckets span time into the named phases the
  roadmap cares about (queueing / checkpoint / salvage / ...), using
  each span's *self* time so a second is never attributed twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .merge import MergedTrace, Span

__all__ = [
    "PhaseRollup",
    "TraceAnalysis",
    "analyze",
    "attribute_phase",
    "critical_path",
    "self_times",
]

#: span (cat, name) -> report phase.  Synthetic ``cat="phase"`` spans
#: (from TickProfiler totals) attribute under their own subsystem name,
#: so the engine's ``admission`` and ``forwarding`` hot paths show up by
#: name.
_PHASE_BY_CAT: Dict[str, str] = {
    "checkpoint": "checkpoint",
    "salvage": "salvage",
    "retry": "retry-wait",
    "queue": "queueing-delay",
}


def attribute_phase(span: Span) -> str:
    """The report phase a span's self time is charged to."""
    if span.cat == "phase":
        return span.name
    if span.cat in _PHASE_BY_CAT:
        return _PHASE_BY_CAT[span.cat]
    if span.name.startswith("checkpoint"):
        return "checkpoint"
    if span.name.startswith("salvage"):
        return "salvage"
    return span.cat


def self_times(trace: MergedTrace) -> Dict[str, float]:
    """Per-span self time: duration minus the union of child intervals.

    Children may overlap each other (synthetic phase spans are laid out
    back to back but a truncated child can overshoot), so the covered
    time is the length of the merged interval union, clipped to the
    parent — never letting self time go negative.
    """
    children = trace.children()
    out: Dict[str, float] = {}
    for span in trace.spans:
        intervals: List[Tuple[float, float]] = []
        for child in children.get(span.span_id, ()):
            lo = max(span.start, child.start)
            hi = min(span.end, child.end)
            if hi > lo:
                intervals.append((lo, hi))
        intervals.sort()
        covered = 0.0
        cursor: Optional[float] = None
        edge = 0.0
        for lo, hi in intervals:
            if cursor is None or lo > edge:
                if cursor is not None:
                    covered += edge - cursor
                cursor, edge = lo, hi
            else:
                edge = max(edge, hi)
        if cursor is not None:
            covered += edge - cursor
        out[span.span_id] = max(0.0, span.duration - covered)
    return out


@dataclass
class PhaseRollup:
    """Aggregate for one ``(cat, name)`` pair."""

    cat: str
    name: str
    count: int = 0
    total_seconds: float = 0.0
    self_seconds: float = 0.0
    truncated: int = 0


@dataclass
class TraceAnalysis:
    """Everything ``repro trace report`` prints."""

    trace_id: str
    wall_seconds: float
    rollups: List[PhaseRollup] = field(default_factory=list)
    #: report phase -> attributed self seconds (sums to <= wall across procs)
    phases: Dict[str, float] = field(default_factory=dict)
    critical_path: List[Span] = field(default_factory=list)
    torn_lines: int = 0
    truncated_spans: int = 0


def critical_path(trace: MergedTrace) -> List[Span]:
    """The last-finisher chain from the latest-ending root downwards."""
    if not trace.spans:
        return []
    children = trace.children()
    ids = {s.span_id for s in trace.spans}
    roots = [s for s in trace.spans if s.parent is None or s.parent not in ids]
    if not roots:
        return []
    path: List[Span] = []
    # deterministic tie-break mirrors the merge's canonical sort
    node = max(roots, key=lambda s: (s.end, s.proc, s.seq))
    while node is not None:
        path.append(node)
        kids = children.get(node.span_id, [])
        node = max(kids, key=lambda s: (s.end, s.proc, s.seq)) if kids else None
    return path


def analyze(trace: MergedTrace) -> TraceAnalysis:
    """Run every analysis over a merged timeline."""
    selfs = self_times(trace)
    rollups: Dict[Tuple[str, str], PhaseRollup] = {}
    phases: Dict[str, float] = {}
    for span in trace.spans:
        key = (span.cat, span.name)
        roll = rollups.get(key)
        if roll is None:
            roll = rollups[key] = PhaseRollup(cat=span.cat, name=span.name)
        roll.count += 1
        roll.total_seconds += span.duration
        roll.self_seconds += selfs[span.span_id]
        if span.truncated:
            roll.truncated += 1
        phase = attribute_phase(span)
        phases[phase] = phases.get(phase, 0.0) + selfs[span.span_id]
    return TraceAnalysis(
        trace_id=trace.trace_id,
        wall_seconds=trace.duration,
        rollups=sorted(
            rollups.values(),
            key=lambda r: (-r.total_seconds, r.cat, r.name),
        ),
        phases=phases,
        critical_path=critical_path(trace),
        torn_lines=trace.torn_lines,
        truncated_spans=trace.truncated_spans,
    )
