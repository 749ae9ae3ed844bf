"""Exporters: Chrome trace-event JSON (Perfetto) and ASCII reports.

The JSON exporter emits the classic `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
(``{"traceEvents": [...]}`` with complete ``"X"`` events, microsecond
timestamps, and per-process metadata) which both ``chrome://tracing``
and https://ui.perfetto.dev load directly — drag the file in, or use
*Open trace file*.

The ASCII exporters back ``repro trace report``: a phase/rollup summary
with the critical path, and a proportional per-process timeline for
terminals, so the common "where did the wall clock go" question never
needs a browser.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from .analysis import TraceAnalysis, analyze
from .merge import MergedTrace

__all__ = [
    "ascii_timeline",
    "chrome_trace",
    "render_report",
    "write_chrome_trace",
]

#: stable lane ids per proc label, supervisor first
def _proc_order(trace: MergedTrace) -> List[str]:
    procs = sorted({s.proc for s in trace.spans} | set(trace.procs))
    if "main" in procs:
        procs.remove("main")
        procs.insert(0, "main")
    return procs


def chrome_trace(trace: MergedTrace) -> Dict[str, Any]:
    """The merged timeline as a Chrome trace-event JSON object."""
    procs = _proc_order(trace)
    tids = {proc: index for index, proc in enumerate(procs)}
    events: List[Dict[str, Any]] = []
    for index, proc in enumerate(procs):
        events.append(
            {
                "ph": "M",
                "pid": 1,
                "tid": tids[proc],
                "name": "thread_name",
                "args": {"name": proc},
            }
        )
        events.append(
            {
                "ph": "M",
                "pid": 1,
                "tid": tids[proc],
                "name": "thread_sort_index",
                "args": {"sort_index": index},
            }
        )
    for span in trace.spans:
        args: Dict[str, Any] = dict(span.args)
        args["span_id"] = span.span_id
        if span.parent is not None:
            args["parent"] = span.parent
        if span.truncated:
            args["truncated"] = True
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": tids.get(span.proc, 0),
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "name": span.name,
                "cat": span.cat,
                "args": args,
            }
        )
    for event in trace.events:
        events.append(
            {
                "ph": "i",
                "pid": 1,
                "tid": tids.get(event.proc, 0),
                "ts": round(event.ts * 1e6, 3),
                "name": event.name,
                "cat": event.cat,
                "s": "t",
                "args": dict(event.args),
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": trace.trace_id,
            "torn_lines": trace.torn_lines,
            "truncated_spans": trace.truncated_spans,
        },
    }


def write_chrome_trace(trace: MergedTrace, path: str) -> Path:
    """Write the Perfetto-loadable JSON file; returns its path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(chrome_trace(trace), sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )
    return out


def _bar(fraction: float, width: int) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


#: per-process row budget: the lane keeps the longest spans and sums
#: the rest
MAX_LANE_ROWS = 12


def ascii_timeline(trace: MergedTrace, width: int = 72) -> str:
    """A proportional per-process lane view of the top-level spans."""
    if not trace.spans:
        return "(empty trace)\n"
    t0 = min(s.start for s in trace.spans)
    t1 = max(s.end for s in trace.spans)
    total = max(t1 - t0, 1e-9)
    ids = {s.span_id for s in trace.spans}
    lines: List[str] = [
        f"timeline  {total:.3f}s  ({len(trace.spans)} spans, "
        f"{len(_proc_order(trace))} procs)"
    ]
    for proc in _proc_order(trace):
        lines.append(f"[{proc}]")
        lane = [
            s
            for s in trace.spans
            if s.proc == proc
            and (s.parent is None or s.parent not in ids or s.cat == "phase")
        ]
        hidden = len(lane) - MAX_LANE_ROWS
        hidden_seconds = 0.0
        if hidden > 0:
            keep = sorted(
                lane, key=lambda s: (-s.duration, s.start, s.seq)
            )[:MAX_LANE_ROWS]
            hidden_seconds = sum(s.duration for s in lane) - sum(
                s.duration for s in keep
            )
            lane = sorted(keep, key=lambda s: (s.start, s.seq))
        for span in lane:
            lead = int((span.start - t0) / total * width)
            body = max(1, int(span.duration / total * width))
            body = min(body, width - min(lead, width - 1))
            bar = " " * min(lead, width - 1) + "=" * body
            flag = " !truncated" if span.truncated else ""
            lines.append(
                f"  {bar:<{width}} {span.name} "
                f"({span.duration:.3f}s){flag}"
            )
        if hidden > 0:
            lines.append(
                f"  ({hidden} shorter span(s) hidden, "
                f"{hidden_seconds:.3f}s total)"
            )
    return "\n".join(lines) + "\n"


def render_report(trace: MergedTrace, width: int = 72) -> str:
    """The full ``repro trace report`` text: analysis + timeline."""
    analysis: TraceAnalysis = analyze(trace)
    lines: List[str] = []
    lines.append(f"trace {analysis.trace_id or '(unnamed)'}")
    lines.append(f"wall clock      {analysis.wall_seconds:.3f}s")
    if analysis.torn_lines or analysis.truncated_spans:
        lines.append(
            f"salvage         {analysis.torn_lines} torn line(s), "
            f"{analysis.truncated_spans} truncated span(s)"
        )
    lines.append("")
    lines.append("phase attribution (self seconds)")
    total_attr = sum(analysis.phases.values()) or 1.0
    for phase, seconds in sorted(
        analysis.phases.items(), key=lambda kv: (-kv[1], kv[0])
    ):
        lines.append(
            f"  {phase:<20} {seconds:>9.3f}s  "
            f"{_bar(seconds / total_attr, 24)}  {seconds / total_attr:6.1%}"
        )
    lines.append("")
    lines.append("rollups (cat/name, count, total, self)")
    for roll in analysis.rollups[:20]:
        trunc = f"  [{roll.truncated} truncated]" if roll.truncated else ""
        lines.append(
            f"  {roll.cat + '/' + roll.name:<34} x{roll.count:<4} "
            f"{roll.total_seconds:>9.3f}s {roll.self_seconds:>9.3f}s{trunc}"
        )
    if len(analysis.rollups) > 20:
        lines.append(f"  ... {len(analysis.rollups) - 20} more")
    lines.append("")
    lines.append("critical path (last finisher, root -> leaf)")
    for depth, span in enumerate(analysis.critical_path):
        lines.append(
            f"  {'  ' * depth}{span.name} [{span.proc}] "
            f"{span.duration:.3f}s"
        )
    lines.append("")
    lines.append(ascii_timeline(trace, width=width))
    return "\n".join(lines)
