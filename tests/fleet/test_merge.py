"""The fleet's telemetry reduction equals one serially-shared telemetry."""

import pytest

from repro.errors import ConfigError
from repro.fleet.merge import merge_registries, merge_telemetry
from repro.telemetry import NullTelemetry, Telemetry
from repro.telemetry.registry import MetricsRegistry


def regs(n=2):
    return [MetricsRegistry() for _ in range(n)]


class TestScalars:
    def test_counters_sum(self):
        a, b = regs()
        a.counter("n_count").inc(3)
        b.counter("n_count").inc(4)
        out = merge_registries(MetricsRegistry(), [a, b])
        assert out.get("n_count").value == 7

    def test_gauges_last_write_wins(self):
        a, b = regs()
        a.gauge("g_ratio").set(1.0)
        b.gauge("g_ratio").set(2.0)
        out = merge_registries(MetricsRegistry(), [a, b])
        assert out.get("g_ratio").value == 2.0

    def test_untouched_gauge_leaves_running_value(self):
        # a later piece that never set the gauge must not reset it,
        # exactly like a serial unit that never touched it
        a, b = regs()
        a.gauge("g_ratio").set(5.0)
        b.counter("other_count").inc()
        out = merge_registries(MetricsRegistry(), [a, b])
        assert out.get("g_ratio").value == 5.0


class TestLabeled:
    def test_labeled_counters_sum_per_label(self):
        a, b = regs()
        a.labeled("c_count").inc("x", 2)
        b.labeled("c_count").inc("x", 3)
        b.labeled("c_count").inc("y", 1)
        out = merge_registries(MetricsRegistry(), [a, b])
        assert dict(out.get("c_count")) == {"x": 5, "y": 1}

    def test_labeled_gauges_overwrite_per_label(self):
        # engine scrapes are absolute totals; a resumed piece's scrape
        # must replace the previous one, never add to it
        a, b = regs()
        a.labeled_gauge("s_packets").set("x", 10)
        b.labeled_gauge("s_packets").set("x", 25)
        b.labeled_gauge("s_packets").set("y", 7)
        out = merge_registries(MetricsRegistry(), [a, b])
        assert dict(out.get("s_packets")) == {"x": 25, "y": 7}
        assert out.get("s_packets").kind == "labeled_gauge"

    def test_label_order_is_first_seen_in_canonical_order(self):
        # metrics.json preserves insertion order, so merged order must
        # equal the serial first-seen order
        a, b = regs()
        a.labeled("c_count").inc("zeta")
        b.labeled("c_count").inc("alpha")
        b.labeled("c_count").inc("zeta")
        out = merge_registries(MetricsRegistry(), [a, b])
        assert list(out.get("c_count")) == ["zeta", "alpha"]


class TestSeries:
    def test_ring_series_replay(self):
        a, b = regs()
        for tick in range(4):
            a.series("r_ratio", capacity=8).sample(tick, float(tick))
        for tick in range(4, 10):
            b.series("r_ratio", capacity=8).sample(tick, float(tick))
        out = merge_registries(MetricsRegistry(), [a, b])
        serial = [(t, float(t)) for t in range(10)][-8:]
        assert out.get("r_ratio").points() == serial

    def test_ring_capacity_mismatch_raises(self):
        a, b = regs()
        a.series("r_ratio", capacity=8).sample(0, 0.0)
        b.series("r_ratio", capacity=16).sample(1, 1.0)
        with pytest.raises(ConfigError):
            merge_registries(MetricsRegistry(), [a, b])


class TestHistogramsAndBins:
    def test_histograms_add(self):
        a, b = regs()
        for v in (0.1, 0.9):
            a.histogram("h_ticks", bounds=[0.5, 1.0]).observe(v)
        b.histogram("h_ticks", bounds=[0.5, 1.0]).observe(0.2)
        out = merge_registries(MetricsRegistry(), [a, b])
        h = out.get("h_ticks")
        assert h.total == 3
        assert h.sum == pytest.approx(1.2)

    def test_histogram_bounds_mismatch_raises(self):
        a, b = regs()
        a.histogram("h_ticks", bounds=[0.5]).observe(0.1)
        b.histogram("h_ticks", bounds=[0.7]).observe(0.1)
        with pytest.raises(ConfigError):
            merge_registries(MetricsRegistry(), [a, b])

    def test_kind_mismatch_raises(self):
        a, b = regs()
        a.counter("m_count").inc()
        b.gauge("m_count").set(1.0)
        with pytest.raises(ConfigError):
            merge_registries(MetricsRegistry(), [a, b])


class TestTelemetry:
    def test_disabled_pieces_reduce_to_null(self):
        merged = merge_telemetry([NullTelemetry(), NullTelemetry()])
        assert not merged.enabled
        assert isinstance(merged, NullTelemetry)

    def test_mode_mismatch_raises(self):
        with pytest.raises(ConfigError):
            merge_telemetry([Telemetry(mode="metrics"), Telemetry(mode="trace")])

    def test_trace_events_concatenate_and_totals_sum(self):
        pieces = [Telemetry(mode="trace"), Telemetry(mode="trace")]
        pieces[0].emit_event(1, "drop", "policy", cause="paid")
        pieces[1].emit_event(2, "drop", "policy", cause="fifo")
        pieces[1].emit_event(3, "admit", "policy")
        merged = merge_telemetry(pieces)
        assert merged.trace.emitted_total == 3
        assert merged.trace.counts_by_kind == {"drop": 2, "admit": 1}
        assert [e.tick for e in merged.trace] == [1, 2, 3]

    def test_disabled_pieces_are_skipped_in_mixed_reduction(self):
        enabled = Telemetry(mode="metrics")
        enabled.registry.counter("n_count").inc(2)
        merged = merge_telemetry([NullTelemetry(), enabled])
        assert merged.mode == "metrics"
        assert merged.registry.get("n_count").value == 2
