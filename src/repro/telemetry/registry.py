"""Metric primitives and the registry that names them.

Every metric name must end in one of the repo's unit suffixes (the same
table :mod:`repro.check.rules.units` enforces statically, re-exported
from :mod:`repro.units`) or in one of the dimensionless suffixes below.
That keeps exported telemetry dimensionally self-describing: a reader —
human or FLC004 — can tell ``pkts_per_tick`` from ``mbps`` without a
side channel.

All primitives are plain picklable containers keyed by simulation tick,
never wall clock, so a registry travels inside engine checkpoints and a
resumed run extends its series seamlessly.  :class:`LabeledCounter` and
:class:`BinnedCounter` subclass :class:`dict` on purpose: the monitor
classes in :mod:`repro.net.engine` expose them where plain dicts used to
live, and equality/iteration/pickling must stay bit-identical.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple, TypeVar, Union

import numpy as np

from ..errors import ConfigError
from ..units import dimension_of

__all__ = [
    "BinnedCounter",
    "Counter",
    "DIMENSIONLESS_SUFFIXES",
    "Gauge",
    "Histogram",
    "LabeledCounter",
    "LabeledGauge",
    "MetricsRegistry",
    "RingSeries",
    "TickSeries",
    "validate_metric_name",
]

#: Suffixes accepted on metric names in addition to the dimensional ones
#: from :data:`repro.units.SUFFIX_DIMENSIONS`.  These mark quantities that
#: deliberately carry no unit (counts of events, shares in [0, 1]).
DIMENSIONLESS_SUFFIXES: Tuple[str, ...] = ("count", "ratio", "share", "events")

_DEFAULT_HISTOGRAM_BOUNDS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)


def validate_metric_name(name: str) -> str:
    """Return ``name`` if it carries a recognised suffix, else raise.

    The dimension comes from :func:`repro.units.dimension_of` (the FLC004
    table); names may alternatively end in one of the dimensionless
    suffixes (``_count``, ``_ratio``, ``_share``, ``_events``).
    """
    if not name or not name.replace("_", "").replace("-", "").isalnum():
        raise ConfigError(f"invalid metric name {name!r}")
    if dimension_of(name) is not None:
        return name
    lowered = name.lower()
    for suffix in DIMENSIONLESS_SUFFIXES:
        if lowered == suffix or lowered.endswith("_" + suffix):
            return name
    raise ConfigError(
        f"metric name {name!r} has no recognised unit suffix; use one of "
        "the repro.units suffixes (e.g. _packets, _ticks, _pkts_per_tick) "
        f"or a dimensionless suffix {DIMENSIONLESS_SUFFIXES}"
    )


class Counter:
    """Monotonic scalar count of events."""

    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """Last-write-wins scalar measurement."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> float:
        return self.value


K = TypeVar("K", bound=Hashable)


class LabeledCounter(Dict[K, int]):
    """A ``dict`` of per-label event counts with a convenience ``inc``.

    Subclasses :class:`dict` so call sites that used to hold a plain
    mapping (``LinkMonitor.service_counts``) keep identical semantics:
    iteration order, equality against dict literals, direct item
    assignment, and pickling all behave exactly as before.
    """

    kind = "labeled"

    def inc(self, label: K, amount: int = 1) -> int:
        new = self.get(label, 0) + amount
        self[label] = new
        return new

    def snapshot(self) -> Dict[str, float]:
        return {str(label): float(self[label]) for label in self}


class LabeledGauge(LabeledCounter[K]):
    """A ``dict`` of per-label *absolute* values (last write wins).

    Same container as :class:`LabeledCounter`, different reduction
    semantics: scrapes of running totals (e.g. per-link serviced counts
    at the end of each ``Engine.run`` call) assign the current absolute
    value, so re-scraping the same engine is idempotent and merging two
    telemetry pieces keeps the later piece's value instead of summing.
    """

    kind = "labeled_gauge"

    def set(self, label: K, value: int) -> None:
        self[label] = value


class BinnedCounter(Dict[Hashable, Dict[int, int]]):
    """Per-category counts folded into fixed-width tick bins.

    Backs :class:`repro.analysis.timeseries.CategorySeriesMonitor`; the
    nested layout ``{category: {bin_index: count}}`` is the monitor's
    historical public shape, so this too subclasses :class:`dict`.
    """

    kind = "binned"

    def observe(self, category: Hashable, bin_index: int, amount: int = 1) -> None:
        bins = self.setdefault(category, {})
        bins[bin_index] = bins.get(bin_index, 0) + amount

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            str(category): {str(b): float(n) for b, n in sorted(bins.items())}
            for category, bins in self.items()
        }


class TickSeries(List[Tuple[int, int]]):
    """Per-tick event counts with the LinkMonitor pending-point protocol.

    Appends one ``(tick, count)`` point per tick that saw at least one
    observation.  The point for the current tick stays *pending* until a
    later tick arrives or :meth:`flush` is called — byte-for-byte the
    flush semantics the monitors exposed before this layer existed.
    Subclasses :class:`list` so ``monitor.series`` remains list-equal to
    the tuples tests expect.
    """

    kind = "tick_series"

    def __init__(self, points: Optional[Iterable[Tuple[int, int]]] = None) -> None:
        super().__init__(points or ())
        self._pending_tick: int = -1
        self._pending_value: int = 0

    @property
    def pending_tick(self) -> int:
        return self._pending_tick

    @property
    def pending_value(self) -> int:
        return self._pending_value

    def observe(self, tick: int, amount: int = 1) -> None:
        if tick != self._pending_tick:
            if self._pending_tick >= 0:
                self.append((self._pending_tick, self._pending_value))
            self._pending_tick = tick
            self._pending_value = 0
        self._pending_value += amount

    def flush(self) -> None:
        """Finalise the pending point; idempotent."""
        if self._pending_tick >= 0:
            self.append((self._pending_tick, self._pending_value))
            self._pending_tick = -1
            self._pending_value = 0

    def snapshot(self) -> List[List[float]]:
        return [[float(t), float(v)] for t, v in self]

    def __reduce__(
        self,
    ) -> Tuple[type, Tuple[List[Tuple[int, int]]], Tuple[int, int]]:
        return (TickSeries, (list(self),), (self._pending_tick, self._pending_value))

    def __setstate__(self, state: Tuple[int, int]) -> None:
        self._pending_tick, self._pending_value = state


class RingSeries:
    """Bounded time series over ``(tick, value)`` samples.

    Backed by numpy ring buffers: a full buffer overwrites the oldest
    sample, so memory stays constant no matter how long a run is.
    """

    kind = "series"

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ConfigError(f"series capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self._ticks = np.zeros(capacity, dtype=np.int64)
        self._values = np.zeros(capacity, dtype=np.float64)
        self._count: int = 0
        self._next: int = 0

    def __len__(self) -> int:
        return self._count

    def sample(self, tick: int, value: float) -> None:
        self._ticks[self._next] = tick
        self._values[self._next] = value
        self._next = (self._next + 1) % self.capacity
        if self._count < self.capacity:
            self._count += 1

    def points(self) -> List[Tuple[int, float]]:
        """Samples in chronological order (oldest survivor first)."""
        if self._count < self.capacity:
            order = np.arange(self._count)
        else:
            order = (np.arange(self.capacity) + self._next) % self.capacity
        return [
            (int(self._ticks[i]), float(self._values[i])) for i in order
        ]

    @property
    def last(self) -> Optional[Tuple[int, float]]:
        if self._count == 0:
            return None
        i = (self._next - 1) % self.capacity
        return (int(self._ticks[i]), float(self._values[i]))

    def snapshot(self) -> List[List[float]]:
        return [[float(t), float(v)] for t, v in self.points()]


class Histogram:
    """Counts of observations across fixed bucket upper bounds.

    ``counts[i]`` tallies observations ``<= bounds[i]``; the final slot
    holds the overflow (``> bounds[-1]``).  Bounds are frozen at
    creation, so cardinality is constant for the whole run.
    """

    kind = "histogram"

    def __init__(self, bounds: Optional[Iterable[float]] = None) -> None:
        chosen = tuple(
            float(b) for b in (_DEFAULT_HISTOGRAM_BOUNDS if bounds is None else bounds)
        )
        if not chosen or any(b2 <= b1 for b1, b2 in zip(chosen, chosen[1:])):
            raise ConfigError(
                f"histogram bounds must be strictly increasing, got {chosen}"
            )
        self.bounds = np.asarray(chosen, dtype=np.float64)
        self.counts = np.zeros(len(chosen) + 1, dtype=np.int64)
        self.total: int = 0
        self.sum: float = 0.0

    def observe(self, value: float) -> None:
        slot = int(np.searchsorted(self.bounds, value, side="left"))
        self.counts[slot] += 1
        self.total += 1
        self.sum += value

    def snapshot(self) -> Dict[str, Union[List[float], float]]:
        return {
            "bounds": [float(b) for b in self.bounds],
            "counts": [float(c) for c in self.counts],
            "total": float(self.total),
            "sum": float(self.sum),
        }


Metric = Union[
    Counter,
    Gauge,
    LabeledCounter[Hashable],
    LabeledGauge[Hashable],
    BinnedCounter,
    TickSeries,
    RingSeries,
    Histogram,
]


class MetricsRegistry:
    """Named home for every metric a run produces.

    Get-or-create accessors (:meth:`counter`, :meth:`gauge`, ...) make
    instrumentation sites one-liners; a name is bound to its kind on
    first use and reusing it as a different kind raises.  The registry
    pickles whole — it rides inside engine checkpoints so resumed runs
    keep extending the same series.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def _bind(self, name: str, kind: str, metric: Metric) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ConfigError(
                    f"metric {name!r} already registered as {existing.kind!r}, "
                    f"cannot re-register as {kind!r}"
                )
            return existing
        validate_metric_name(name)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        metric = self._bind(name, "counter", Counter())
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._bind(name, "gauge", Gauge())
        assert isinstance(metric, Gauge)
        return metric

    def labeled(self, name: str) -> "LabeledCounter[Hashable]":
        metric = self._bind(name, "labeled", LabeledCounter())
        assert isinstance(metric, LabeledCounter)
        return metric

    def labeled_gauge(self, name: str) -> "LabeledGauge[Hashable]":
        metric = self._bind(name, "labeled_gauge", LabeledGauge())
        assert isinstance(metric, LabeledGauge)
        return metric

    def binned(self, name: str) -> BinnedCounter:
        metric = self._bind(name, "binned", BinnedCounter())
        assert isinstance(metric, BinnedCounter)
        return metric

    def tick_series(self, name: str) -> TickSeries:
        metric = self._bind(name, "tick_series", TickSeries())
        assert isinstance(metric, TickSeries)
        return metric

    def series(self, name: str, capacity: int = 4096) -> RingSeries:
        metric = self._bind(name, "series", RingSeries(capacity))
        assert isinstance(metric, RingSeries)
        return metric

    def histogram(
        self, name: str, bounds: Optional[Iterable[float]] = None
    ) -> Histogram:
        metric = self._bind(name, "histogram", Histogram(bounds))
        assert isinstance(metric, Histogram)
        return metric

    def adopt(self, name: str, metric: Metric) -> Metric:
        """Register an externally owned metric (e.g. a monitor's series)."""
        return self._bind(name, metric.kind, metric)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready view: ``{name: {"kind": ..., "value": ...}}``."""
        return {
            name: {"kind": metric.kind, "value": metric.snapshot()}
            for name, metric in sorted(self._metrics.items())
        }
