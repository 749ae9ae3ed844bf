"""Unified telemetry: metrics registry, decision tracing, drop provenance.

One facade, :class:`Telemetry`, is shared by the packet engine
(:mod:`repro.net.engine`) and the fluid simulator
(:mod:`repro.inet.simulator`).  Both read the module-level *current*
telemetry at construction time, so enabling instrumentation is::

    from repro.telemetry import Telemetry, use

    tel = Telemetry(mode="trace")
    with use(tel):
        scenario = build_tree_scenario(...)
        scenario.run_seconds(6.0)
    tel.registry.snapshot()          # metrics
    tel.trace.events("drop")         # decision trace

Design invariants:

* **Observation only.**  Telemetry never changes a simulated quantity:
  with it on or off, run digests and monitor series are byte-identical.
* **Null fast path.**  The default :data:`NULL_TELEMETRY` has
  ``enabled == False``; instrumentation sites guard on that single
  attribute, so a run without telemetry pays one attribute load and a
  branch per site.
* **Tick-keyed.**  Metrics and events carry simulation ticks and
  telemetry reads no clock.  Wall time per subsystem is the span
  tracer's job: :mod:`repro.trace` owns the tick profiler, whose module
  (:mod:`repro.telemetry.profiler`) is on the FLC001 wall-clock
  allowlist.
* **Per-task install.**  :func:`use` installs a session for one task,
  and the scheduler pickles each task's session back to fold it; the
  tracer has its own slot (``current_tracer()/use_tracer()``) because it
  is installed once per process and never pickled.
* **No simulator imports.**  This package duck-types engines and
  simulators; :mod:`repro.net` / :mod:`repro.inet` import *it*, never
  the other way round.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Hashable, Iterator, Optional, Tuple

from ..errors import ConfigError
from .events import DROP_CAUSES, TraceEvent, TraceLog, precedence
from .registry import (
    BinnedCounter,
    Counter,
    Gauge,
    Histogram,
    LabeledCounter,
    LabeledGauge,
    MetricsRegistry,
    RingSeries,
    TickSeries,
    validate_metric_name,
)

__all__ = [
    "BinnedCounter",
    "Counter",
    "DROP_CAUSES",
    "Gauge",
    "Histogram",
    "LabeledCounter",
    "LabeledGauge",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "RingSeries",
    "Telemetry",
    "TickSeries",
    "TraceEvent",
    "TraceLog",
    "current",
    "precedence",
    "use",
    "validate_metric_name",
]

#: Telemetry modes: ``metrics`` keeps only aggregate counters/series
#: (cheap enough for chaos sweeps); ``trace`` additionally records
#: structured per-decision events.
MODES: Tuple[str, ...] = ("metrics", "trace")


class NullTelemetry:
    """Disabled telemetry: the no-op fast path and the common interface.

    Hot loops guard on :attr:`enabled` and skip all work; the methods
    below exist so cold paths (scrapes, exporters) can be called
    unconditionally.  The registry attribute is a real (empty) registry
    so typed call sites need no ``Optional`` dance.
    """

    mode: str = "off"

    def __init__(self) -> None:
        self.enabled: bool = False
        self.trace_enabled: bool = False
        self.registry: MetricsRegistry = MetricsRegistry()
        self.trace: Optional[TraceLog] = None
        self.sample_interval_ticks: int = 16

    # -- event / metric entry points (no-ops when disabled) ------------
    def emit_event(self, tick: int, kind: str, subsystem: str, **data: Any) -> None:
        """Record a decision-trace event (only in ``trace`` mode)."""

    def record_drop(
        self,
        tick: int,
        cause: str,
        flow_id: Optional[int] = None,
        path_id: Optional[Hashable] = None,
    ) -> None:
        """Attribute one packet drop to exactly one pipeline cause."""

    def record_fluid_drop_volumes(self, tick: int, **volumes: float) -> None:
        """Attribute fluid-model drop *volumes* (pkts) to causes."""

    def sample_engine(self, engine: Any, tick: int) -> None:
        """Sample engine-level series every ``sample_interval_ticks``."""

    def scrape_engine(self, engine: Any) -> None:
        """Fold end-of-run engine totals into gauges/labeled counters."""

    def scrape_fluid(self, sim: Any) -> None:
        """Fold end-of-run fluid-simulator totals into gauges."""

    # -- provenance -----------------------------------------------------
    def drop_provenance(self) -> Dict[str, float]:
        """Per-cause drop totals recorded so far (empty when disabled)."""
        return {}


class Telemetry(NullTelemetry):
    """Enabled telemetry facade shared by both simulators."""

    def __init__(self, mode: str = "metrics") -> None:
        super().__init__()
        if mode not in MODES:
            raise ConfigError(f"telemetry mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.enabled = True
        self.trace_enabled = mode == "trace"
        self.trace = TraceLog() if self.trace_enabled else None

    # -- event / metric entry points ------------------------------------
    def emit_event(self, tick: int, kind: str, subsystem: str, **data: Any) -> None:
        if self.trace is not None:
            self.trace.emit(tick, kind, subsystem, **data)

    def record_drop(
        self,
        tick: int,
        cause: str,
        flow_id: Optional[int] = None,
        path_id: Optional[Hashable] = None,
    ) -> None:
        self.registry.labeled("drops_by_cause_packets").inc(cause)
        if self.trace is not None:
            self.trace.emit(
                tick, "drop", "policy",
                cause=cause, flow_id=flow_id, path_id=path_id,
            )

    def record_fluid_drop_volumes(self, tick: int, **volumes: float) -> None:
        counter = self.registry.labeled("fluid_drops_by_cause_pkts")
        for cause, volume in volumes.items():
            if volume > 0.0:
                # labeled counters hold ints for packet tallies but the
                # fluid model drops fractional volumes; keep the raw sum.
                counter[cause] = counter.get(cause, 0) + volume
                if self.trace is not None:
                    self.trace.emit(
                        tick, "fluid_drop", "policy",
                        cause=cause, volume_pkts=volume,
                    )

    def sample_engine(self, engine: Any, tick: int) -> None:
        if tick % self.sample_interval_ticks != 0:
            return
        reg = self.registry
        reg.series("engine_emitted_packets").sample(
            tick, float(engine.packets_emitted)
        )
        reg.series("engine_delivered_packets").sample(
            tick, float(engine.packets_delivered)
        )

    def scrape_engine(self, engine: Any) -> None:
        reg = self.registry
        reg.gauge("engine_run_ticks").set(float(engine.tick))
        reg.gauge("engine_emitted_total_packets").set(float(engine.packets_emitted))
        reg.gauge("engine_delivered_total_packets").set(
            float(engine.packets_delivered)
        )
        serviced = reg.labeled_gauge("link_serviced_packets")
        dropped = reg.labeled_gauge("link_dropped_packets")
        for link in engine.topology.links():
            key = f"{link.src}->{link.dst}"
            serviced[key] = int(link.serviced_total)
            dropped[key] = int(link.dropped_total)

    def scrape_fluid(self, sim: Any) -> None:
        reg = self.registry
        reg.gauge("fluid_run_ticks").set(float(getattr(sim, "_run_tick", 0)))
        reg.gauge("fluid_flows_count").set(float(sim.n_flows))
        reg.gauge("fluid_groups_count").set(float(sim.n_groups))

    # -- provenance -----------------------------------------------------
    def drop_provenance(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        packet = self.registry.get("drops_by_cause_packets")
        if isinstance(packet, LabeledCounter):
            for label, value in packet.items():
                out[str(label)] = out.get(str(label), 0.0) + float(value)
        fluid = self.registry.get("fluid_drops_by_cause_pkts")
        if isinstance(fluid, LabeledCounter):
            for label, value in fluid.items():
                out[str(label)] = out.get(str(label), 0.0) + float(value)
        return out


#: Shared disabled singleton; simulators default to this.
NULL_TELEMETRY = NullTelemetry()

_current: NullTelemetry = NULL_TELEMETRY


def current() -> NullTelemetry:
    """The telemetry new engines/simulators attach to."""
    return _current


@contextmanager
def use(telemetry: NullTelemetry) -> Iterator[NullTelemetry]:
    """Install ``telemetry`` as current for the duration of a block."""
    global _current
    previous = _current
    _current = telemetry
    try:
        yield telemetry
    finally:
        _current = previous
