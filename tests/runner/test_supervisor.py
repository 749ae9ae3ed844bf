"""Supervision through the scheduler's in-process executor: retries,
deadlines, shutdown, salvage.

Everything here runs ``run_fleet(..., workers=None)`` with closure tasks
(the in-process executor never pickles a task), and without a store
unless the behaviour under test is the store's.
"""

from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.errors import (
    ConfigError,
    DeadlineExceeded,
    InvariantViolation,
)
from repro.fleet import FleetOptions, run_fleet
from repro.runner import (
    CheckpointStore,
    GracefulShutdown,
    RetryPolicy,
    Watchdog,
)


@dataclass
class Task:
    """A closure as a task: what the scheduler needs is a name and a run."""

    name: str
    run: Callable[[Any], Any]


def run_units(units, tmp_path=None, fingerprint=None, **options):
    options.setdefault("retry", RetryPolicy(max_retries=2, base_delay=0.0))
    store = CheckpointStore(str(tmp_path)) if tmp_path is not None else None
    tasks = [Task(name, fn) for name, fn in units]
    return run_fleet(
        tasks, store, FleetOptions(**options), fingerprint=fingerprint
    )


class TestRetry:
    def test_transient_failure_retried(self):
        calls = []

        def flaky(ctx):
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return "ok"

        report = run_units([("u", flaky)])
        assert report.status == "ok"
        assert report.results["u"] == "ok"
        assert report.outcomes[0].attempts == 3

    def test_retries_bounded(self):
        def always_fails(ctx):
            raise RuntimeError("permanent")

        report = run_units([("u", always_fails)])
        assert report.status == "failed"
        assert report.outcomes[0].attempts == 3  # initial + 2 retries
        assert "RuntimeError" in report.outcomes[0].error

    @pytest.mark.parametrize("exc", [
        ConfigError("bad"),
        InvariantViolation("conservation", 5, "off by 7"),
    ])
    def test_deterministic_errors_not_retried(self, exc):
        attempts = []

        def fails(ctx):
            attempts.append(1)
            raise exc

        report = run_units([("u", fails)])
        assert report.outcomes[0].status == "failed"
        assert len(attempts) == 1

    def test_backoff_is_deterministic_and_jittered(self):
        policy = RetryPolicy(max_retries=3, base_delay=1.0, seed=7)
        a = policy.backoff("unit-x", 1)
        assert a == policy.backoff("unit-x", 1)  # reproducible
        assert a != policy.backoff("unit-y", 1)  # decorrelated
        assert 0.5 <= a < 1.5
        assert policy.backoff("unit-x", 2) <= 2 * 1.5

    def test_backoff_capped(self):
        policy = RetryPolicy(max_retries=9, base_delay=1.0, max_delay=4.0)
        assert policy.backoff("u", 9) <= 4.0 * 1.5


class TestPartialSalvage:
    def test_one_failure_does_not_sink_the_job(self):
        def bad(ctx):
            raise ConfigError("nope")

        report = run_units(
            [("good1", lambda ctx: 1), ("bad", bad), ("good2", lambda ctx: 2)]
        )
        assert report.status == "partial"
        assert report.completed() == ["good1", "good2"]
        assert report.failed() == ["bad"]
        assert report.results == {"good1": 1, "good2": 2}

    def test_all_failures_mean_failed(self):
        def bad(ctx):
            raise ConfigError("nope")

        report = run_units([("a", bad), ("b", bad)])
        assert report.status == "failed"


class TestResume:
    def test_completed_units_skipped(self, tmp_path):
        calls = []

        def unit(ctx):
            calls.append(ctx.name)
            return ctx.name.upper()

        units = [("a", unit), ("b", unit)]
        first = run_units(units, tmp_path, {"fig": "x"})
        assert first.status == "ok" and calls == ["a", "b"]

        second = run_units(units, tmp_path, {"fig": "x"})
        assert second.status == "ok"
        assert calls == ["a", "b"]  # nothing re-ran
        assert [o.status for o in second.outcomes] == ["resumed", "resumed"]
        assert second.results == first.results

    def test_fingerprint_mismatch_refuses(self, tmp_path):
        from repro.errors import CheckpointError

        run_units([("a", lambda ctx: 1)], tmp_path, {"seed": 1})
        with pytest.raises(CheckpointError, match="different job"):
            run_units([("a", lambda ctx: 1)], tmp_path, {"seed": 2})

    def test_job_level_telemetry_snapshot_refused_with_telemetry_on(
        self, tmp_path
    ):
        from repro.errors import CheckpointError
        from repro.telemetry import Telemetry

        # a store from a release that snapshotted one registry for the
        # whole job instead of per-task pieces
        CheckpointStore(str(tmp_path)).save(
            "telemetry", "registry", Telemetry(mode="metrics")
        )
        units = [("a", lambda ctx: 1)]
        with pytest.raises(CheckpointError, match="job-level telemetry"):
            run_units(units, tmp_path, telemetry_mode="metrics")
        # without telemetry there is nothing to lose: the store resumes
        assert run_units(units, tmp_path).status == "ok"


class TestWatchdog:
    def test_deadline_between_units(self):
        def slow(ctx):
            # ten seconds pass on the run's watchdog while the unit runs
            ctx.watchdog._started -= 10.0
            return 1

        report = run_units(
            [("a", slow), ("b", slow), ("c", slow)], deadline_seconds=15.0
        )
        assert report.status == "deadline"
        assert report.completed() == ["a", "b"]  # c never started
        assert "c" not in report.results

    def test_watchdog_check_raises_after_expiry(self):
        clock = {"t": 0.0}
        dog = Watchdog(5.0, clock=lambda: clock["t"])
        dog.check()
        clock["t"] = 6.0
        assert dog.expired
        with pytest.raises(DeadlineExceeded):
            dog.check()

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ConfigError):
            Watchdog(0.0)


class TestShutdown:
    def test_requested_flag_stops_between_units(self, tmp_path):
        ran = []

        def unit(ctx):
            ran.append(ctx.name)
            # simulate a signal arriving while the first unit runs
            ctx.shutdown.requested = True
            ctx.shutdown.signum = 15
            return 1

        report = run_units([("a", unit), ("b", unit)], tmp_path)
        assert report.status == "interrupted"
        assert ran == ["a"]
        assert report.completed() == ["a"]
        # the completed unit's result was checkpointed before the stop
        assert CheckpointStore(str(tmp_path)).load("unit", "a") == 1

    def test_handlers_restored_on_exit(self):
        import signal

        before = signal.getsignal(signal.SIGTERM)
        with GracefulShutdown():
            assert signal.getsignal(signal.SIGTERM) != before
        assert signal.getsignal(signal.SIGTERM) == before

    def test_scheduler_restores_handlers_too(self):
        import signal

        before = signal.getsignal(signal.SIGTERM)
        seen = []
        run_units(
            [("a", lambda ctx: seen.append(signal.getsignal(signal.SIGTERM)))]
        )
        assert seen[0] != before
        assert signal.getsignal(signal.SIGTERM) == before


class TestInProcessExecutor:
    def test_task_unwinding_on_the_watchdog_ends_the_run(self):
        def polls(ctx):
            ctx.watchdog._started -= 10.0
            ctx.watchdog.check()  # what a resumable tick loop does

        report = run_units(
            [("a", polls), ("b", lambda ctx: 1)], deadline_seconds=5.0
        )
        assert report.status == "deadline"
        assert report.outcomes == [] and report.results == {}

    def test_task_unwinding_on_shutdown_ends_the_run(self):
        def stopped(ctx):
            ctx.shutdown.requested = True
            ctx.shutdown.raise_if_requested(context=ctx.name)

        report = run_units([("a", stopped), ("b", lambda ctx: 1)])
        assert report.status == "interrupted"
        assert report.outcomes == []

    def test_fault_plan_needs_a_spawn_pool(self):
        from repro.fleet import ProcessFault, ProcessFaultPlan

        plan = ProcessFaultPlan(
            faults=(ProcessFault("a", "kill_worker", 0.1),)
        )
        with pytest.raises(ConfigError, match="in-process"):
            run_units([("a", lambda ctx: 1)], fault_plan=plan)

    def test_no_store_no_fleet_directory(self, tmp_path):
        report = run_units([("a", lambda ctx: 1)], tmp_path)
        assert report.status == "ok" and report.workers_spawned == 0
        assert not (tmp_path / "fleet").exists()
