"""Deterministic reduction of per-task telemetry into one registry.

Determinism across executors rests on two pillars.  First, every unit
job and chaos campaign is a pure function of its spec and seed
(seeds derive from names/indices, never from which process ran
what), so *results* are trivially order-independent.
Second, telemetry: the scheduler gives every task a fresh telemetry of
the run's mode — in-process and in spawn workers alike — and this module
folds those per-task pieces together **in canonical task order** (the
task list's order, regardless of completion order or worker
assignment), reproducing kind by kind what one shared
:class:`~repro.telemetry.Telemetry` threaded through the tasks in that
order would hold:

* ``Counter`` — piece values sum.
* ``Gauge`` — last writer wins; a piece that never touched the gauge
  leaves the running value alone, exactly like a unit that never set it.
* ``LabeledCounter`` — per-label sums, label insertion order =
  first-seen in canonical order (serial insertion order), which matters
  because ``metrics.json`` preserves it.
* ``LabeledGauge`` — per-label last-write-wins: these hold absolute
  engine scrapes, so the later piece replaces, never sums.
* ``RingSeries`` — replay pieces' surviving samples in order into a
  fresh ring of the same capacity.  Each piece survives at least the
  suffix the final ring needs, so the result equals the serial ring.
* ``Histogram`` — counts/total/sum add; bounds must agree.
* ``TraceLog`` — events concatenate under one ``maxlen`` window while
  ``emitted_total``/``counts_by_kind`` sum, so eviction accounting
  matches a single shared log.

Floats are added per piece first, then across pieces in task order;
since every executor produces and folds the same pieces, that is the one
association order every export shares.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import ConfigError
from ..telemetry import NullTelemetry, Telemetry
from ..telemetry.events import TraceLog
from ..telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    LabeledCounter,
    LabeledGauge,
    Metric,
    MetricsRegistry,
    RingSeries,
)

__all__ = ["merge_telemetry", "merge_registries"]


def _merge_ring_series(out: RingSeries, piece: RingSeries) -> None:
    # ring capacity is an integral buffer size, not a link rate
    if piece.capacity != out.capacity:  # flocheck: disable=FLC003 -- ring capacity is an integral buffer size, not a link rate; exact mismatch is the error being raised
        raise ConfigError(
            f"cannot merge ring series of capacity {piece.capacity} "
            f"into capacity {out.capacity}"
        )
    for tick, value in piece.points():
        out.sample(tick, value)


def _merge_histogram(out: Histogram, piece: Histogram) -> None:
    if list(out.bounds) != list(piece.bounds):
        raise ConfigError("cannot merge histograms with different bounds")
    out.counts += piece.counts
    out.total += piece.total
    out.sum += piece.sum


def _merge_metric(out: Metric, piece: Metric) -> None:
    if isinstance(piece, Counter) and isinstance(out, Counter):
        out.value += piece.value
    elif isinstance(piece, Gauge) and isinstance(out, Gauge):
        out.value = piece.value
    elif isinstance(piece, LabeledGauge) and isinstance(out, LabeledGauge):
        # absolute per-label scrape: later piece's value replaces,
        # first-seen label order still matches serial insertion order
        for label, value in piece.items():
            out[label] = value
    elif isinstance(piece, LabeledCounter) and isinstance(out, LabeledCounter):
        for label, value in piece.items():
            # fluid volume counters hold floats; mirror the raw-sum
            # convention from Telemetry.record_fluid_drop_volumes.
            out[label] = out.get(label, 0) + value
    elif isinstance(piece, RingSeries) and isinstance(out, RingSeries):
        _merge_ring_series(out, piece)
    elif isinstance(piece, Histogram) and isinstance(out, Histogram):
        _merge_histogram(out, piece)
    else:
        raise ConfigError(
            f"cannot merge metric kinds {piece.kind!r} into {out.kind!r}"
        )


def _fresh_like(piece: Metric) -> Metric:
    if isinstance(piece, RingSeries):
        return RingSeries(piece.capacity)
    if isinstance(piece, Histogram):
        return Histogram([float(b) for b in piece.bounds])
    return type(piece)()


def merge_registries(
    out: MetricsRegistry, pieces: Sequence[MetricsRegistry]
) -> MetricsRegistry:
    """Fold ``pieces`` (canonical task order) into ``out``."""
    for piece in pieces:
        # iterate in the piece's insertion order, not sorted order, so
        # first-seen label/metric creation order matches serial.
        for name in piece._metrics:  # noqa: SLF001 - same-package reduction
            metric = piece.get(name)
            assert metric is not None
            existing = out.get(name)
            if existing is None:
                existing = out.adopt(name, _fresh_like(metric))
            _merge_metric(existing, metric)
    return out


def _merge_traces(out: TraceLog, pieces: Sequence[Optional[TraceLog]]) -> TraceLog:
    for piece in pieces:
        if piece is None:
            continue
        for event in piece:
            out._events.append(event)  # noqa: SLF001 - deque handles maxlen
        out.emitted_total += piece.emitted_total
        for kind, count in piece.counts_by_kind.items():
            out.counts_by_kind[kind] = out.counts_by_kind.get(kind, 0) + count
    return out


def merge_telemetry(pieces: Sequence[NullTelemetry]) -> NullTelemetry:
    """Reduce per-task telemetry objects (canonical order) into one.

    All enabled pieces must share a mode; the merged telemetry has that
    mode (``NULL_TELEMETRY``-style disabled output when no piece was
    enabled) and a registry/trace equal to what a single telemetry
    threaded serially through the same tasks would hold.
    """
    enabled = [p for p in pieces if p.enabled]
    if not enabled:
        return NullTelemetry()
    modes = {p.mode for p in enabled}
    if len(modes) > 1:
        raise ConfigError(f"cannot merge telemetry across modes {sorted(modes)}")
    merged = Telemetry(mode=enabled[0].mode)
    merge_registries(merged.registry, [p.registry for p in enabled])
    if merged.trace is not None:
        _merge_traces(merged.trace, [p.trace for p in enabled])
    return merged
