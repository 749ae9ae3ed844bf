"""Transient-memory guard for the fluid step.

``peak_rss_mb`` on the ``inet_fluid_floc`` benchmark workload may rise by
5 % at most, which at 110 k flows is about four full-length float64
arrays.  A workspace buffer or a few more live temporaries in
``step_run`` can spend that without any test noticing, so this test
counts them: the ``tracemalloc`` peak of a simulator over 20 steps, in
units of one full-length float64 array, must not exceed what the same
measurement gave at the parent of the PR that rewrote the step hot path.
(That PR itself brought the counts down to about 8.8 / 10.4 / 12.2.)
A mid-run pickle is held to the parent's size in the same units.
"""

import pickle
import tracemalloc

import pytest

from repro.inet.scenarios import build_internet_scenario
from repro.inet.simulator import FluidSimulator

# peak_bytes / (8 * n_flows), simulator state plus step temporaries, as
# measured at the parent (13.75 / 13.75 / 18.38) rounded up to a tenth
PARENT_PEAK_ARRAYS = {"nd": 13.8, "ff": 13.8, "floc": 18.4}
# len(pickle.dumps(sim)) / (8 * n_flows) after 60 ticks, at the parent
PARENT_PICKLE_ARRAYS = {"nd": 7.67, "ff": 7.67, "floc": 8.75}


@pytest.fixture(scope="module")
def scenario():
    return build_internet_scenario(
        n_as=400, n_legit_sources=1_000, n_legit_ases=60, n_bots=9_000,
        target_capacity=1_500.0, seed=4, build_flow_links=False,
    )


def step_peak_arrays(scenario, strategy):
    """Peak traced memory of a simulator built on ``scenario`` (which is
    allocated before tracing starts and so not counted) over 20 steps
    in steady state, in full-length float64 arrays."""
    tracemalloc.start()
    try:
        sim = FluidSimulator(scenario, strategy=strategy, seed=4)
        sim.begin_run(ticks=100, warmup=0)
        for _ in range(60):
            sim.step_run()
        tracemalloc.reset_peak()
        for _ in range(20):
            sim.step_run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * sim.n_flows)


@pytest.mark.parametrize("strategy", ["nd", "ff", "floc"])
def test_step_peak_memory_not_above_parent(scenario, strategy):
    # the first traced run in a process also counts one-off allocations
    # (numpy's lazy imports, interned constants); take the second
    step_peak_arrays(scenario, strategy)
    peak = step_peak_arrays(scenario, strategy)
    assert peak <= PARENT_PEAK_ARRAYS[strategy], (
        f"{strategy}: the step now peaks at {peak:.2f} full-length float64 "
        f"arrays, above the {PARENT_PEAK_ARRAYS[strategy]} it was given"
    )


@pytest.mark.parametrize("strategy", ["nd", "ff", "floc"])
def test_mid_run_pickle_not_larger_than_parent(scenario, strategy):
    """Lookup tables are derived state and stay out of checkpoints."""
    sim = FluidSimulator(scenario, strategy=strategy, seed=4)
    sim.begin_run(ticks=100, warmup=0)
    for _ in range(60):
        sim.step_run()
    arrays = len(pickle.dumps(sim)) / (8 * sim.n_flows)
    assert arrays <= PARENT_PICKLE_ARRAYS[strategy]
