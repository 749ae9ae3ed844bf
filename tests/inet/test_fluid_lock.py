"""Byte lock on the fluid simulator's per-tick arithmetic.

``PINS`` were computed at the parent of the PR that rewrote the step hot
path (plain-float survival pass, per-AS tables, legit-only TCP update),
*before* any source edit, when the simulator kept one state row per
flow.  The class-collapsed simulator must still reproduce every one of
them when every flow is split into a class of its own: each digest
covers the accumulator, windows, smoothed rates, flags and last
admission expanded to one row per flow (``array[sim.flow_class]``), the
recorded series and every ``FluidResult`` field, across the three
strategies and the run-time paths that rewrite the simulator's inputs
mid-run (per-flow attack rates, degraded uplinks, a defense restart with
its warm-up branch).

``CLASS_PINS`` hold the same digests under the default partition, one
class per (origin AS, kind).  There a class's reductions multiply by its
member count instead of adding its members one by one, so the last
digits move; ``test_fluid_classes.py`` holds that partition to the
per-flow oracle (identical flags and group plans, shares within 1e-12
relative), which is what licenses these pins.
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


class LiftLimit:
    """Writes capacity 0 ("no limit") on one uplink; :meth:`up` puts the
    old capacity back.  ``FluidLinkDegrade(factor=0.0)`` wrote this 0
    when the pins were taken; it now kills the uplink instead."""

    def __init__(self, asn):
        self.asn = asn
        self.original = None

    def down(self, sim, tick, rng):
        self.original = float(sim.scn.link_capacity[self.asn])
        sim.scn.link_capacity[self.asn] = 0.0

    def up(self, sim, tick, rng):
        sim.scn.link_capacity[self.asn] = self.original


def with_degrade(sim, scenario):
    # a clean uplink squeezed below its load, the most contaminated
    # uplink (clogged from tick 0) squeezed further, and another clogged
    # uplink taken to capacity 0, which the survival pass treats as
    # "no limit"
    clean = FluidLinkDegrade(busiest_clean_as(scenario), factor=0.1)
    worst = FluidLinkDegrade(int(scenario.attack_ases[0]), factor=0.3)
    lifted = LiftLimit(int(scenario.attack_ases[3]))
    faults = FaultSchedule()
    faults.at(70, clean.down, name="clean-down")
    faults.at(80, worst.down, name="worst-down")
    faults.at(90, lifted.down, name="dead-down")
    faults.at(130, clean.up, name="clean-up")
    faults.at(140, worst.up, name="worst-up")
    faults.at(150, lifted.up, name="dead-up")
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


def run_digest(strategy, variant, split_all=False):
    setup, s_max = VARIANTS[variant]
    scenario = build_scenario()  # fresh: hooks rewrite the scenario's arrays
    sim = FluidSimulator(scenario, strategy=strategy, s_max=s_max, seed=5)
    if split_all:
        sim.split(np.arange(sim.n_flows))
    run_kwargs = setup(sim, scenario)
    result = sim.run(ticks=TICKS, warmup=WARMUP, **run_kwargs)
    h = hashlib.sha256()
    for array in (
        sim._acc, sim.w, sim._rate_ewma, sim._flagged, sim._last_admitted
    ):
        # per-class state, expanded to one row per flow
        array = array[sim.flow_class]
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


CLASS_PINS = {
    "nd-degrade": "407ec709020bd1b0cb2e9b7d923831d9328b3dc48cf7cc6146ab24269b0fb733",
    "nd-plain": "0956afcf47bb466ab42e87f057b9dadcce1a4c14d0293f980995839c5d45949a",
    "nd-randomizer": "89bee613473907ccec4a51ae8ce47a546dceb05d5049e7cce48845acbf2aaf52",
    "nd-restart": "f923eafeefdf21a1a4fae39a73f6e2b097214bc8074261a190ea638fa790247c",
    "nd-s_max": "388c837b76ff6358477f1c8e0d7b26e84102f33588ea50e73a950c2ff18297fa",
    "nd-series": "1e468365d61e9b543dc93605b92f50ed53f20ef75710abdd8cf6e87d2bfaf302",
    "ff-degrade": "e82e78b530ac1efc132f93f56a35a1c6d86df268b601f6eb619fa3a69871d423",
    "ff-plain": "06bebc4b529abb2f81c7170610e859503bf8c0fa07210dca078f49d0daee9475",
    "ff-randomizer": "baa8f0701900773eec66e107ddf5923ce629f303868bac1a4c93247ef8041d0d",
    "ff-restart": "55ae8ae25bd3368f9d112ae7084be4dadc0bf0a4f69f625ce7df0191285435e7",
    "ff-s_max": "b457c9cb76663d5773223ffdd88f8b33b2dfa0412a4864069757b497c01b57e9",
    "ff-series": "edc5c060846bb6b64e494623a1bed80a4414407f76bbf62cb5b3eec5c3a06604",
    "floc-degrade": "0a94ce3a33bd7c36cfc23826cf83667a21a0fc302b67f16779fd4d60d0f00c07",
    "floc-plain": "1ab5631424b9eacb1af291e27754663f8f81197ba1fd3a096de44069fd9b399f",
    "floc-randomizer": "7a2629d5c4cbfaa4ea669b547bbe2116fd60b21766cd5e8424fd714f82558505",
    "floc-restart": "cc582d5d38d2187201f72004c06d9a0a17f4a46d6e38a71a6a057af63c87a6fc",
    "floc-s_max": "7dcefa2258e297c3aa6ef37496bba5c63999011121d1aa98ee4674e4f51aa4af",
    "floc-series": "d1968772c73ceeb3a845df89af0f21c4a7a19cde36b05ca50750d8f4dd3c10b4",
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("strategy", ["nd", "ff", "floc"])
def test_step_bytes_match_parent_pin(strategy, variant):
    """Split into singletons, the class axis is the per-flow model."""
    digest = run_digest(strategy, variant, split_all=True)
    assert digest == PINS[f"{strategy}-{variant}"]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("strategy", ["nd", "ff", "floc"])
def test_step_bytes_match_class_pin(strategy, variant):
    assert run_digest(strategy, variant) == CLASS_PINS[f"{strategy}-{variant}"]


def test_lock_scenario_exercises_the_branches_it_pins():
    """The pins are only worth something if the small scenario reaches
    the code they are meant to hold still: clogged uplinks, flagged and
    unflagged flows side by side, a warm-up window, classes of many
    members, and bots split by the randomizer."""
    scenario = build_scenario()
    sim = FluidSimulator(scenario, strategy="floc", seed=5)
    sim.run(ticks=WARMUP, warmup=WARMUP)
    rates = sim._send_rates()
    surv = sim._upstream_survival(rates)
    assert surv.min() < 1.0 and surv.max() == 1.0
    assert 0 < int(sim.count[sim._flagged].sum()) < sim.n_flows
    assert sim.count.max() > 1.0
    sim.restart_defense(WARMUP, warmup_ticks=5)
    assert sim._warmup_until == WARMUP + 5
    with_randomizer(sim, scenario)
    sim.begin_run(ticks=1, warmup=0)
    sim.step_run()
    assert np.all(sim.count[sim._class_attack] == 1.0)
    assert sim.count[~sim._class_attack].max() > 1.0
