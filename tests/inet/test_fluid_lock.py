"""Byte lock on the fluid simulator's per-tick arithmetic.

The pins were computed at the parent of the PR that rewrote the step hot
path (plain-float survival pass, per-AS tables, legit-only TCP update),
*before* any source edit.  Every optimisation of ``step_run`` has to keep
them: each digest covers the per-flow accumulator, windows, smoothed
rates, flags and last admission, the recorded series and every
``FluidResult`` field, across the three strategies and the run-time
paths that rewrite the simulator's inputs mid-run (per-flow attack
rates, degraded uplinks, a defense restart with its warm-up branch).
"""

import hashlib

import numpy as np
import pytest

from repro.faults import FaultSchedule, FluidLinkDegrade, fluid_restart
from repro.inet.scenarios import build_internet_scenario
from repro.inet.simulator import FluidSimulator
from repro.traffic.adaptive import FluidRateRandomizer

TICKS = 220
WARMUP = 60


def build_scenario():
    # attack_rate above the 1.5x uplink headroom, so contaminated
    # subtrees clog upstream and the survival pass does real work
    return build_internet_scenario(
        n_as=150, n_legit_sources=300, n_legit_ases=40, n_bots=3_000,
        target_capacity=150.0, attack_rate=2.0, seed=6,
    )


def busiest_clean_as(scenario):
    counts = np.bincount(
        scenario.flow_origin_as[~scenario.flow_is_attack],
        minlength=scenario.n_links,
    )
    counts[0] = 0
    for asn in scenario.attack_ases:
        counts[asn] = 0
    return int(counts.argmax())


def plain(sim, scenario):
    return {}


def with_series(sim, scenario):
    return {"record_series": True}


def with_randomizer(sim, scenario):
    sim.add_tick_hook(FluidRateRandomizer(interval=25, spread=0.5))
    return {}


def with_degrade(sim, scenario):
    # a clean uplink squeezed below its load, the most contaminated
    # uplink (clogged from tick 0) squeezed further, and another clogged
    # uplink taken to capacity 0, which the survival pass treats as
    # "no limit"
    clean = FluidLinkDegrade(busiest_clean_as(scenario), factor=0.1)
    worst = FluidLinkDegrade(int(scenario.attack_ases[0]), factor=0.3)
    dead = FluidLinkDegrade(int(scenario.attack_ases[3]), factor=0.0)
    faults = FaultSchedule()
    faults.at(70, clean.down, name="clean-down")
    faults.at(80, worst.down, name="worst-down")
    faults.at(90, dead.down, name="dead-down")
    faults.at(130, clean.up, name="clean-up")
    faults.at(140, worst.up, name="worst-up")
    faults.at(150, dead.up, name="dead-up")
    faults.install(sim)
    return {"record_series": True}


def with_restart(sim, scenario):
    FaultSchedule().at(100, fluid_restart(warmup_ticks=30)).install(sim)
    return {"record_series": True}


VARIANTS = {
    "plain": (plain, None),
    "s_max": (plain, 12),
    "series": (with_series, None),
    "randomizer": (with_randomizer, None),
    "degrade": (with_degrade, None),
    "restart": (with_restart, None),
}


def run_digest(strategy, variant):
    setup, s_max = VARIANTS[variant]
    scenario = build_scenario()  # fresh: hooks rewrite the scenario's arrays
    sim = FluidSimulator(scenario, strategy=strategy, s_max=s_max, seed=5)
    run_kwargs = setup(sim, scenario)
    result = sim.run(ticks=TICKS, warmup=WARMUP, **run_kwargs)
    h = hashlib.sha256()
    for array in (
        sim._acc, sim.w, sim._rate_ewma, sim._flagged, sim._last_admitted
    ):
        h.update(str(array.dtype).encode())
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(repr(result.series).encode())
    h.update(
        repr(
            (
                result.strategy,
                result.s_max,
                sorted(result.shares.items()),
                result.utilization,
                sorted(result.per_flow_mean.items()),
                sorted(result.n_flows.items()),
                result.n_groups,
                sim._measured_ticks,
                sim._admitted_total,
            )
        ).encode()
    )
    return h.hexdigest()


PINS = {
    "nd-degrade": "486315c759c0404b65abeeba6a991d5b1535daf52c67652e2d6e98b56573b615",
    "nd-plain": "f4a4efce9fa38eda8156d26f7886c6ce0b8924b0c580de2df39117f2d206e8f2",
    "nd-randomizer": "dd3364d53ba7459e2fc4174d88e0820f7e939e83a9656d924e418a188725a6db",
    "nd-restart": "f7ed413f0e3146392b8c887fb37d320560dce71c676521f6d3a46283cfad85e3",
    "nd-s_max": "87cf94d4e73e1d32316cd2d039d5ba28f4851cfa174f15a19e20701e47bae088",
    "nd-series": "5c8b9ece76404770b70d42df0b39b7c69105762ca929714460b8e53bcf5c00d9",
    "ff-degrade": "b4ead44476d5753df7336826c5fc1484c715f1d680f2686e23740a753465b1c7",
    "ff-plain": "66656ecad172977996efdb1dd0ed46d3382769a32a1910aaf0c475bbbff72a1d",
    "ff-randomizer": "9abde4cfd9fc46fece2367e4600967d2927243eedffb393158977f360b648f0e",
    "ff-restart": "a336221e44abaf67cb46ebb70b159f5c631a1ca9a8adfd22a8a2cae592a665ac",
    "ff-s_max": "2996e627ad859fa7a2ec986a46abd4ad5948f6e13a7ae9d7bdb19c67781dd9ca",
    "ff-series": "aa36e3fc784f7e7ce25eb3dbaa8b625835437d22871158efcef0525236b5ca30",
    "floc-degrade": "4e9cadb40637f3e7633c1be765b152410a162d9e3295d99c92cad0f2a96a59c1",
    "floc-plain": "bc07de13c2a190f88348c4fd0196217e015eb31c4051b7a023dac0f9b88c1b69",
    "floc-randomizer": "c54cda10fc6a1a1391973cf9c89957cc27dfaf21c3196ccf77c4b61274901a89",
    "floc-restart": "ab0a23a7a1624572c81ae751166e209623ec5611eba1e0af07fc21372b2ba69d",
    "floc-s_max": "79524703bf7f8f6fa188799770d56f0381f95d82cbcdd1c00935a0a95f3b3a87",
    "floc-series": "17c2b2da47f62d785eb7c40f860747cc1a22c111ec440a195f4ff7576728753c",
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("strategy", ["nd", "ff", "floc"])
def test_step_bytes_match_parent_pin(strategy, variant):
    assert run_digest(strategy, variant) == PINS[f"{strategy}-{variant}"]


def test_lock_scenario_exercises_the_branches_it_pins():
    """The pins are only worth something if the small scenario reaches
    the code they are meant to hold still: clogged uplinks, flagged and
    unflagged flows side by side, and a warm-up window."""
    scenario = build_scenario()
    sim = FluidSimulator(scenario, strategy="floc", seed=5)
    sim.run(ticks=WARMUP, warmup=WARMUP)
    rates = sim._send_rates()
    surv = sim._upstream_survival(rates)
    assert surv.min() < 1.0 and surv.max() == 1.0
    assert 0 < int(sim._flagged.sum()) < sim.n_flows
    sim.restart_defense(WARMUP, warmup_ticks=5)
    assert sim._warmup_until == WARMUP + 5
