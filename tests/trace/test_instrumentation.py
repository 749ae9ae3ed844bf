"""Live spans from the instrumented fabric + digest identity with tracing.

These tests run the real scheduler (both executors) and chaos layers with a real
tracer attached and assert (a) the span DAG they emit is the documented
taxonomy and joins across processes, and (b) results and digests are
byte-identical with tracing on or off — the regression lock for the
observation-only contract.
"""

import pickle

from repro.chaos import ChaosOptions, run_chaos
from repro.experiments.common import FunctionalSettings
from repro.fleet import FleetOptions, run_fleet
from repro.runner import CheckpointStore, figure_tasks
from repro.trace import Tracer, merge_trace, use_tracer


def _settings():
    return FunctionalSettings(
        scale=0.05, warmup_seconds=0.5, measure_seconds=1.0, seed=3
    )


class QuickTask:
    def __init__(self, name):
        self.name = name

    def run(self, ctx):
        return {"name": ctx.name}


class TestRunnerSpans:
    """The in-process executor emits the one span family, single-process."""

    def test_job_and_unit_spans_with_parenting(self, tmp_path):
        tracer = Tracer(str(tmp_path), proc="main")
        with use_tracer(tracer):
            report = run_fleet([QuickTask("u1"), QuickTask("u2")])
        tracer.close()
        assert report.status == "ok"
        merged = merge_trace(str(tmp_path))
        assert list(merged.procs) == ["main"]
        by_name = {s.name: s for s in merged.spans}
        job = by_name["fleet"]
        assert job.cat == "job"
        assert job.args["status"] == "ok"
        for unit in ("task:u1", "task:u2"):
            assert by_name[unit].parent == job.span_id
            assert by_name[unit].args["status"] == "done"
        assert merged.truncated_spans == 0

    def test_no_tracer_no_files(self, tmp_path):
        report = run_fleet([QuickTask("u1")])
        assert report.status == "ok"
        assert list(tmp_path.iterdir()) == []

    def test_in_process_phases_parent_under_the_task_span(self, tmp_path):
        tracer = Tracer(str(tmp_path), proc="main")
        with use_tracer(tracer):
            report = run_fleet(figure_tasks("fig07", _settings())[:1])
        tracer.close()
        assert report.status == "ok"
        merged = merge_trace(str(tmp_path))
        task_ids = {s.span_id for s in merged.spans if s.cat == "task"}
        phases = [s for s in merged.spans if s.cat == "phase"]
        assert phases and all(s.parent in task_ids for s in phases)


class TestFleetSpans:
    def test_worker_spans_join_the_supervisor_dag(self, tmp_path):
        # fig07 (not fig03) so the tasks drive the profiled tick engine
        # and the workers synthesize per-phase spans from its totals
        trace_dir = tmp_path / "trace"
        tasks = figure_tasks("fig07", _settings())
        store = CheckpointStore(str(tmp_path / "store"))
        tracer = Tracer(str(trace_dir), proc="main")
        with use_tracer(tracer):
            freport = run_fleet(
                tasks, store, FleetOptions(workers=2)
            )
        tracer.close()
        assert freport.status == "ok"

        merged = merge_trace(str(trace_dir))
        assert "main" in merged.procs
        worker_procs = sorted(p for p in merged.procs if p != "main")
        assert worker_procs  # at least one worker wrote spans
        by_id = merged.by_id()
        fleet = next(s for s in merged.spans if s.name == "fleet")
        # every worker-side task span parents under a supervisor-side
        # task span of the same name, which parents under the fleet span
        worker_tasks = [
            s for s in merged.spans
            if s.cat == "task" and s.proc != "main"
        ]
        assert len(worker_tasks) == len(tasks)
        for span in worker_tasks:
            parent = by_id[span.parent]
            assert parent.proc == "main"
            assert parent.name == span.name
            assert parent.parent == fleet.span_id
        # per-tick engine phases were synthesized inside the worker spans
        assert any(s.cat == "phase" for s in merged.spans)

    def test_fleet_results_identical_with_tracing(self, tmp_path):
        tasks = figure_tasks("fig03", _settings())
        base = run_fleet(
            tasks,
            CheckpointStore(str(tmp_path / "s1")),
            FleetOptions(workers=2),
        )
        tracer = Tracer(str(tmp_path / "trace"), proc="main")
        with use_tracer(tracer):
            traced = run_fleet(
                figure_tasks("fig03", _settings()),
                CheckpointStore(str(tmp_path / "s2")),
                FleetOptions(workers=2),
            )
        tracer.close()
        assert base.results == traced.results


class TestChaosDigestIdentity:
    def test_campaign_digest_identical_with_tracing(self, tmp_path):
        options = ChaosOptions(
            seed=4, campaigns=1, simulator="packet", shrink=False,
            artifact_dir=None,
        )
        base = run_chaos(options)
        tracer = Tracer(str(tmp_path), proc="main")
        with use_tracer(tracer):
            traced = run_chaos(options)
        tracer.close()
        assert base.campaigns[0]["digest"] == traced.campaigns[0]["digest"]
        assert base.campaigns[0]["verdicts"] == (
            traced.campaigns[0]["verdicts"]
        )
        # the sweep actually emitted campaign spans
        merged = merge_trace(str(tmp_path))
        assert any(s.name == "campaign.run" for s in merged.spans)


class TestCheckpointPurity:
    def test_tracer_state_never_reaches_pickles(self, tmp_path):
        tracer = Tracer(str(tmp_path), proc="main")
        tracer.span("unit").end()
        payload = pickle.dumps(tracer)
        clone = pickle.loads(payload)
        assert not clone.enabled
        # pickling twice is stable: no hidden wall-clock state leaks in
        assert pickle.dumps(clone) == pickle.dumps(
            pickle.loads(payload)
        )
        tracer.close()
