"""Tracer emission: record format, handles, context, pickling to empty."""

import json
import pickle

import pytest

from repro.errors import ConfigError
from repro.trace import (
    NULL_TRACER,
    NullTracer,
    TraceContext,
    Tracer,
    current_tracer,
    use_tracer,
)


def read_records(path):
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


class TestRecordFormat:
    def test_meta_line_first_then_begin_end(self, tmp_path):
        tracer = Tracer(str(tmp_path), proc="main", epoch=100.0)
        with tracer.span("job", cat="job", units=2):
            pass
        tracer.close()
        records = read_records(tmp_path / "spans-main.jsonl")
        assert [r["ph"] for r in records] == ["M", "B", "E"]
        assert records[0]["proc"] == "main"
        assert records[0]["epoch"] == 100.0
        assert records[1]["span"] == "main:1"
        assert records[1]["args"] == {"units": 2}
        assert records[2]["span"] == "main:1"

    def test_every_record_is_flushed_as_written(self, tmp_path):
        tracer = Tracer(str(tmp_path), proc="main")
        span = tracer.span("unit")
        # no close, no end: the begin record must already be durable
        records = read_records(tmp_path / "spans-main.jsonl")
        assert [r["ph"] for r in records] == ["M", "B"]
        span.end()
        tracer.close()

    def test_lines_are_canonical_json(self, tmp_path):
        tracer = Tracer(str(tmp_path), proc="main")
        tracer.span("unit", zebra=1, alpha=2).end()
        tracer.close()
        for line in (tmp_path / "spans-main.jsonl").read_text().splitlines():
            assert line == json.dumps(
                json.loads(line), sort_keys=True, separators=(",", ":")
            )

    def test_proc_label_must_be_plain(self, tmp_path):
        with pytest.raises(ConfigError):
            Tracer(str(tmp_path), proc="w/0")
        with pytest.raises(ConfigError):
            Tracer(str(tmp_path), proc="w:0")


class TestSpanHandle:
    def test_end_is_idempotent(self, tmp_path):
        tracer = Tracer(str(tmp_path), proc="main")
        span = tracer.span("unit")
        span.end(status="done")
        span.end(status="again")
        tracer.close()
        ends = [
            r for r in read_records(tmp_path / "spans-main.jsonl")
            if r["ph"] == "E"
        ]
        assert len(ends) == 1
        assert ends[0]["args"] == {"status": "done"}

    def test_exception_recorded_on_with_exit(self, tmp_path):
        tracer = Tracer(str(tmp_path), proc="main")
        with pytest.raises(ValueError):
            with tracer.span("unit"):
                raise ValueError("boom")
        tracer.close()
        ends = [
            r for r in read_records(tmp_path / "spans-main.jsonl")
            if r["ph"] == "E"
        ]
        assert ends[0]["args"] == {"error": "ValueError"}

    def test_event_parents_under_span(self, tmp_path):
        tracer = Tracer(str(tmp_path), proc="main")
        with tracer.span("unit") as span:
            span.event("unit.resumed")
        tracer.close()
        instants = [
            r for r in read_records(tmp_path / "spans-main.jsonl")
            if r["ph"] == "i"
        ]
        assert instants[0]["parent"] == span.span_id


class TestNullTracer:
    def test_null_is_inert_everywhere(self, tmp_path):
        null = NullTracer()
        assert not null.enabled
        with null.span("unit") as span:
            span.event("x")
        span.end()
        null.event("y")
        null.emit_complete("z", 0.0, 1.0)
        null.emit_phases(span)
        assert null.profiler is None
        assert null.context() is None
        null.close()
        assert list(tmp_path.iterdir()) == []


class TestCurrentTracer:
    def test_use_installs_and_restores(self, tmp_path):
        assert current_tracer() is NULL_TRACER
        tracer = Tracer(str(tmp_path), proc="main")
        with use_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER
        tracer.close()

    def test_restores_on_exception(self, tmp_path):
        tracer = Tracer(str(tmp_path), proc="main")
        with pytest.raises(RuntimeError):
            with use_tracer(tracer):
                raise RuntimeError
        assert current_tracer() is NULL_TRACER
        tracer.close()


class TestContextPropagation:
    def test_child_joins_trace_with_shared_epoch(self, tmp_path):
        parent = Tracer(str(tmp_path), proc="main", epoch=500.0)
        with parent.span("task") as span:
            ctx = parent.context(parent=span)
        assert ctx == TraceContext(
            trace_id=parent.trace_id,
            trace_dir=str(tmp_path),
            epoch=500.0,
            parent_span_id=span.span_id,
        )
        child = Tracer.from_context(ctx, proc="w0")
        assert child.epoch == 500.0
        assert child.trace_id == parent.trace_id
        child.span("task:unit", parent=ctx.parent_span_id).end()
        parent.close()
        child.close()
        child_records = read_records(tmp_path / "spans-w0.jsonl")
        begins = [r for r in child_records if r["ph"] == "B"]
        assert begins[0]["parent"] == span.span_id

    def test_with_parent_rewrites_only_the_parent(self):
        ctx = TraceContext("t", "d", 1.0, parent_span_id=None)
        rewired = ctx.with_parent("main:7")
        assert rewired.parent_span_id == "main:7"
        assert (rewired.trace_id, rewired.trace_dir, rewired.epoch) == (
            "t", "d", 1.0,
        )


class TestPicklePurity:
    def test_tracer_pickles_to_disabled_empty_shell(self, tmp_path):
        tracer = Tracer(str(tmp_path), proc="main")
        tracer.span("unit").end()
        clone = pickle.loads(pickle.dumps(tracer))
        assert not clone.enabled
        assert clone.proc == "off"
        assert not hasattr(clone, "trace_dir")
        # a revived tracer must stay inert
        clone.span("x").end()
        clone.event("y")
        tracer.close()
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["spans-main.jsonl"]


class TestPhases:
    def test_emit_phases_lays_spans_back_to_back_ascending(self, tmp_path):
        tracer = Tracer(str(tmp_path), proc="main", epoch=100.0)
        parent = tracer.span("unit")
        tracer.profiler.totals_seconds.update(
            {"queueing": 0.4, "tcp": 0.1, "idle": 0.0}
        )
        tracer.emit_phases(parent)
        # the totals are spent: the next task's span starts from zero
        assert tracer.profiler.totals_seconds == {}
        parent.end()
        tracer.close()
        xs = [
            r for r in read_records(tmp_path / "spans-main.jsonl")
            if r["ph"] == "X"
        ]
        # idle (zero) skipped; shortest first so the largest phase is the
        # last finisher the critical-path walk descends into
        assert [r["name"] for r in xs] == ["tcp", "queueing"]
        assert xs[0]["ts"] == parent.start_ts
        assert xs[0]["dur"] == 0.1
        assert xs[1]["ts"] == round(parent.start_ts + 0.1, 6)
        assert xs[1]["dur"] == 0.4
        assert all(r["parent"] == parent.span_id for r in xs)
        assert all(r["args"]["synthetic"] for r in xs)
