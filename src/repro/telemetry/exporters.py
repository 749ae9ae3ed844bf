"""Serialise telemetry to files: JSON metrics, Prometheus text, CSV, JSONL.

All exports are deterministic for a deterministic run: metric names are
sorted, events stream in emission order, and no timestamps other than
simulation ticks ever appear, so every executor writes the same bytes.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Any, Dict, List

from ..errors import ConfigError
from . import NullTelemetry
from .registry import (
    Counter,
    Gauge,
    Histogram,
    LabeledCounter,
    LabeledGauge,
    MetricsRegistry,
    RingSeries,
)

__all__ = [
    "export_all",
    "export_events_jsonl",
    "export_metrics_json",
    "export_prometheus",
    "export_series_csv",
    "load_metrics_json",
    "render_prometheus",
]

SCHEMA_VERSION = 1


def _metrics_payload(tel: NullTelemetry) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "mode": tel.mode,
        "metrics": tel.registry.snapshot(),
    }
    if tel.trace is not None:
        payload["trace"] = {
            "emitted_total": tel.trace.emitted_total,
            "evicted_total": tel.trace.evicted_total,
            "counts_by_kind": dict(sorted(tel.trace.counts_by_kind.items())),
        }
    return payload


def export_metrics_json(tel: NullTelemetry, path: str) -> str:
    """Write the registry (plus the trace summary) as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_metrics_payload(tel), handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def load_metrics_json(path: str) -> Dict[str, Any]:
    """Read a ``metrics.json`` produced by :func:`export_metrics_json`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read metrics file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path!r} is not valid metrics JSON: {exc}") from exc
    if not isinstance(data, dict) or "metrics" not in data:
        raise ConfigError(f"{path!r} is not a telemetry metrics export")
    return data


def render_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus-style text exposition of the registry."""
    lines: List[str] = []
    for name in registry.names():
        metric = registry.get(name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {metric.value:g}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {metric.value:g}")
        elif isinstance(metric, LabeledCounter):
            # LabeledGauge subclasses LabeledCounter: same rows, but an
            # absolute scrape is a gauge, not a counter
            kind = "gauge" if isinstance(metric, LabeledGauge) else "counter"
            lines.append(f"# TYPE {name} {kind}")
            for label in sorted(metric, key=repr):
                value = float(metric[label])
                lines.append(f'{name}{{label="{label}"}} {value:g}')
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0.0
            for bound, count in zip(metric.bounds, metric.counts):
                cumulative += float(count)
                lines.append(f'{name}_bucket{{le="{float(bound):g}"}} {cumulative:g}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {float(metric.total):g}')
            lines.append(f"{name}_sum {metric.sum:g}")
            lines.append(f"{name}_count {float(metric.total):g}")
        elif isinstance(metric, RingSeries):
            # expose only the latest point; full history goes to CSV
            last = metric.last
            if last is not None:
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {float(last[1]):g}")
    return "\n".join(lines) + "\n" if lines else ""


def export_prometheus(tel: NullTelemetry, path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_prometheus(tel.registry))
    return path


def export_series_csv(tel: NullTelemetry, path: str) -> str:
    """All time-series metrics as ``metric,tick,value`` rows."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["metric", "tick", "value"])
        for name in tel.registry.names():
            metric = tel.registry.get(name)
            if isinstance(metric, RingSeries):
                for tick, value in metric.points():
                    writer.writerow([name, tick, f"{value:g}"])
    return path


def export_events_jsonl(tel: NullTelemetry, path: str) -> str:
    """Decision-trace events, one JSON object per line, emission order."""
    with open(path, "w", encoding="utf-8") as handle:
        if tel.trace is not None:
            for event in tel.trace:
                handle.write(json.dumps(event.to_dict(), sort_keys=False))
                handle.write("\n")
    return path


def export_all(tel: NullTelemetry, directory: str) -> Dict[str, str]:
    """Write every applicable export into ``directory``; returns paths."""
    os.makedirs(directory, exist_ok=True)
    out = {
        "metrics": export_metrics_json(tel, os.path.join(directory, "metrics.json")),
        "prometheus": export_prometheus(tel, os.path.join(directory, "metrics.prom")),
        "series": export_series_csv(tel, os.path.join(directory, "series.csv")),
    }
    if tel.trace is not None:
        out["events"] = export_events_jsonl(
            tel, os.path.join(directory, "events.jsonl")
        )
    return out
