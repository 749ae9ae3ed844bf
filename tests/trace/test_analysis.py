"""Critical path, self/total rollups, phase attribution."""

from repro.trace import analyze, critical_path, merge_trace
from repro.trace.analysis import attribute_phase, self_times
from repro.trace.merge import Span

from .helpers import begin, end, write_spans


def _fleet_trace(tmp_path):
    """Two tasks on a two-worker pool; w1's finishes last."""
    write_spans(
        tmp_path,
        "main",
        [
            begin("main", 1, 0.0, "fleet", cat="job"),
            begin("main", 2, 0.1, "task:u0", cat="task", parent="main:1"),
            begin("main", 3, 0.1, "task:u1", cat="task", parent="main:1"),
            end("main", 2, 9.0),
            end("main", 3, 9.5),
            end("main", 1, 10.0),
        ],
    )
    write_spans(
        tmp_path,
        "w0",
        [
            begin("w0", 1, 0.2, "task:u0", cat="task", parent="main:2"),
            begin("w0", 2, 1.0, "ticks", parent="w0:1", cat="run"),
            end("w0", 2, 4.0),
            begin("w0", 3, 5.0, "retry.wait", parent="w0:1",
                  cat="retry"),
            end("w0", 3, 5.5),
            end("w0", 1, 8.8),
        ],
    )
    write_spans(
        tmp_path,
        "w1",
        [
            begin("w1", 1, 0.2, "task:u1", cat="task", parent="main:3"),
            begin("w1", 2, 3.5, "ticks", parent="w1:1", cat="run"),
            end("w1", 2, 4.0),
            begin("w1", 3, 4.5, "policy", parent="w1:1",
                  cat="phase"),
            end("w1", 3, 5.0),
            end("w1", 1, 9.4),
        ],
    )
    return merge_trace(str(tmp_path))


class TestCriticalPath:
    def test_last_finisher_walk_crosses_processes(self, tmp_path):
        trace = _fleet_trace(tmp_path)
        path = [s.span_id for s in critical_path(trace)]
        # fleet -> the later-ending supervisor task span -> the worker
        # span it parents -> that worker's last-ending child
        assert path == ["main:1", "main:3", "w1:1", "w1:3"]

    def test_empty_trace_has_empty_path(self):
        from repro.trace.merge import MergedTrace

        assert critical_path(MergedTrace(trace_id="t")) == []


class TestSelfTimes:
    def test_child_union_is_subtracted_once(self, tmp_path):
        # two overlapping children must not be double-subtracted
        write_spans(
            tmp_path,
            "main",
            [
                begin("main", 1, 0.0, "unit"),
                begin("main", 2, 1.0, "a", parent="main:1"),
                begin("main", 3, 2.0, "b", parent="main:1"),
                end("main", 2, 3.0),
                end("main", 3, 4.0),
                end("main", 1, 10.0),
            ],
        )
        selfs = self_times(merge_trace(str(tmp_path)))
        # children cover [1, 4) as a union -> 10 - 3 = 7
        assert abs(selfs["main:1"] - 7.0) < 1e-9

    def test_overshooting_child_is_clipped(self, tmp_path):
        # a truncated child can end after its parent; never negative self
        write_spans(
            tmp_path,
            "main",
            [
                begin("main", 1, 0.0, "unit"),
                begin("main", 2, 0.0, "child", parent="main:1"),
                end("main", 2, 5.0),
                end("main", 1, 2.0),
            ],
        )
        selfs = self_times(merge_trace(str(tmp_path)))
        assert selfs["main:1"] == 0.0


class TestPhaseAttribution:
    def test_cat_mapping(self):
        def span(cat, name):
            return Span(
                span_id="x:1", parent=None, name=name, cat=cat,
                proc="x", start=0.0, end=1.0,
            )

        assert attribute_phase(span("retry", "retry.wait")) == "retry-wait"
        # synthetic profiler phases attribute under their subsystem name
        assert attribute_phase(span("phase", "queueing")) == "queueing"
        # everything else buckets under its category
        assert attribute_phase(span("task", "task:u")) == "task"

    def test_analysis_charges_self_time_to_named_phases(self, tmp_path):
        analysis = analyze(_fleet_trace(tmp_path))
        assert abs(analysis.phases["run"] - 3.5) < 1e-9
        assert abs(analysis.phases["retry-wait"] - 0.5) < 1e-9
        assert abs(analysis.phases["policy"] - 0.5) < 1e-9
        assert analysis.wall_seconds == 10.0

    def test_rollups_sorted_by_total_with_counts(self, tmp_path):
        analysis = analyze(_fleet_trace(tmp_path))
        ticks = next(
            r for r in analysis.rollups
            if (r.cat, r.name) == ("run", "ticks")
        )
        assert ticks.count == 2
        assert abs(ticks.total_seconds - 3.5) < 1e-9
        totals = [r.total_seconds for r in analysis.rollups]
        assert totals == sorted(totals, reverse=True)

