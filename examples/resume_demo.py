#!/usr/bin/env python
"""Crash-safe runs: checkpoint a figure job, kill it, resume bit-identically.

Walks the whole supervised-run lifecycle through the scheduler's
in-process executor (no real signals needed):

1. run the FIG-13 strategy sweep decomposed into per-(variant, strategy)
   units, with strict invariant checking and a checkpoint directory;
2. interrupt it partway through (simulating SIGTERM mid-job);
3. resume from the checkpoints — completed units load from disk, the
   rest run fresh — and verify the final table equals an uninterrupted
   reference run, row for row;
4. corrupt a counter mid-run and watch the sanitizer catch it within a
   tick.

Run:  python examples/resume_demo.py
"""

import tempfile

from repro import (
    CheckpointStore,
    CounterCorruption,
    FaultSchedule,
    FLocConfig,
    FLocPolicy,
    InvariantViolation,
    build_figure_job,
    build_tree_scenario,
    install_sanitizer,
)
from repro.analysis.report import format_table
from repro.errors import Interrupted
from repro.experiments.common import FunctionalSettings
from repro.fleet import FleetOptions, run_fleet
from repro.runner import figure_tasks


class TripAfter:
    """Wraps a task: once ``budget`` tasks have run, raises the same
    Interrupted the SIGTERM handler path produces."""

    budget = 2

    def __init__(self, task):
        self.task, self.name = task, task.name

    def run(self, ctx):
        if TripAfter.budget == 0:
            raise Interrupted("simulated SIGTERM")
        TripAfter.budget -= 1
        return self.task.run(ctx)


def interrupted_then_resumed(settings: FunctionalSettings) -> None:
    job = build_figure_job("fig13", settings, variants=("f-root",))
    tasks = figure_tasks("fig13", settings, variants=("f-root",))
    print(f"fig13 decomposes into {len(tasks)} units:")
    for task in tasks:
        print(f"  {task.name}")

    options = FleetOptions(sanitize=settings.sanitize)
    reference = run_fleet(tasks, options=options)

    ckpt_dir = tempfile.mkdtemp(prefix="floc-ckpt-")
    print(f"\ncheckpointing to {ckpt_dir}; interrupting after 2 units...")

    partial = run_fleet(
        [TripAfter(task) for task in tasks],
        CheckpointStore(ckpt_dir), options, fingerprint=job.fingerprint,
    )
    print(f"first run: status={partial.status}, "
          f"completed={partial.completed()}")

    resumed = run_fleet(
        tasks, CheckpointStore(ckpt_dir), options,
        fingerprint=job.fingerprint,
    )
    print(f"resume:    status={resumed.status}, "
          f"resumed={[o.name for o in resumed.outcomes if o.status == 'resumed']}")

    ref_rows = job.finalize(reference.results).rows
    res_rows = job.finalize(resumed.results).rows
    assert res_rows == ref_rows, "resumed run diverged from reference!"
    output = job.finalize(resumed.results)
    print()
    print(format_table(output.headers, output.rows,
                       title="fig13 after kill + resume (== uninterrupted)"))


def sanitizer_catches_corruption() -> None:
    print("\ninjecting a silent ledger corruption at tick 40...")
    scenario = build_tree_scenario(
        scale_factor=0.05, attack_kind="cbr", attack_rate_mbps=2.0, seed=3
    )
    scenario.attach_policy(FLocPolicy(FLocConfig(s_max=25)))
    faults = FaultSchedule()
    faults.at(40, CounterCorruption(*scenario.target, target="ledger"),
              name="silent-skew")
    faults.install(scenario.engine)
    install_sanitizer(scenario.engine, "strict")
    try:
        scenario.run_seconds(2.0)
    except InvariantViolation as exc:
        print(f"caught: {exc}")
        print(f"(corruption fired at tick 40, flagged at tick {exc.tick})")
    else:
        raise AssertionError("sanitizer missed the corruption")


def main() -> None:
    settings = FunctionalSettings(
        scale=0.05, warmup_seconds=1.0, measure_seconds=2.0, seed=1,
        sanitize="strict",
    )
    interrupted_then_resumed(settings)
    sanitizer_catches_corruption()


if __name__ == "__main__":
    main()
