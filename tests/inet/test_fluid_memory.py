"""Memory guard for the fluid step.

The simulator keeps one state row per (origin AS, kind) class, so the
only full-length arrays a run holds are the scenario's flow tables and
the flow-to-class map ``flow_class``; a step allocates nothing of flow
length.  This test counts what is left: the ``tracemalloc`` peak of a
simulator over 20 steps, in units of one full-length float64 array,
must not exceed what it was when flows were collapsed into classes.
With one state row per flow the counts were 13.75 / 13.75 / 18.38, so a
return to per-flow state or per-flow step temporaries fails here.
"""

import tracemalloc

import pytest

from repro.inet.scenarios import build_internet_scenario
from repro.inet.simulator import FluidSimulator

# peak_bytes / (8 * n_flows), simulator state plus step temporaries, as
# measured on the class axis (1.76 / 1.77 / 2.62) rounded up to a tenth
PARENT_PEAK_ARRAYS = {"nd": 1.8, "ff": 1.8, "floc": 2.7}


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

