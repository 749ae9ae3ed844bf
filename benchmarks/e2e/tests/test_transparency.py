"""The timing wrappers must not change what the simulators compute."""

import pytest

from harness import run_repetition
from layers import LayerTrace
from workloads import WORKLOADS, Size

TINY = {
    "tree": Size(warmup_ticks=30, timed_ticks=60, chunk_ticks=20, scale=0.03,
                 reps=1),
    "inet": Size(warmup_ticks=10, timed_ticks=20, chunk_ticks=5, scale=0.02,
                 reps=1),
}


def tiny(workload):
    return TINY["inet" if workload.name.startswith("inet") else "tree"]


@pytest.mark.parametrize("workload", WORKLOADS.values(), ids=lambda w: w.name)
def test_digest_is_equal_with_and_without_wrappers(workload):
    size = tiny(workload)
    plain, _ = run_repetition(workload, size, seed=5)
    trace = LayerTrace()
    traced, _ = run_repetition(
        workload, size, seed=5,
        wrap=trace.wrap_policy, on_built=trace.instrument,
        on_chunk=trace.on_chunk,
    )
    assert traced.outcome == plain.outcome
    assert trace.sanitizer is not None and trace.sanitizer.report.ok
    assert trace.sanitizer.report.checks_run > 0


@pytest.mark.parametrize("workload", WORKLOADS.values(), ids=lambda w: w.name)
def test_seed_reaches_the_workload(workload):
    size = tiny(workload)
    first, _ = run_repetition(workload, size, seed=5)
    again, _ = run_repetition(workload, size, seed=5)
    other, _ = run_repetition(workload, size, seed=6)
    assert again.outcome == first.outcome
    assert other.outcome.digest != first.outcome.digest


def test_spans_nest_and_children_fit_their_parent():
    workload = WORKLOADS["tree_flood_floc"]
    trace = LayerTrace()
    run_repetition(
        workload, tiny(workload), seed=1,
        wrap=trace.wrap_policy, on_built=trace.instrument,
        on_chunk=trace.on_chunk,
    )
    by_id = {span["id"]: span for span in trace.spans}
    parents = [s for s in trace.spans if s["parent"] is None]
    assert [s["name"] for s in parents] == (
        ["net.scenario.build"] + ["net.engine.warmup"] * 2
        + ["net.engine.run"] * 3
    )
    children = [s for s in trace.spans if s["parent"] is not None]
    assert {"core.policy.admit", "tcp.source", "harness.sanitizer"} <= {
        s["name"] for s in children
    }
    for parent in parents:
        inside = sum(
            s["end"] - s["start"] for s in children
            if s["parent"] == parent["id"]
        )
        assert inside <= (parent["end"] - parent["start"]) * 1.001
    for child in children:
        assert by_id[child["parent"]]["parent"] is None
        assert child["calls"] >= 1
