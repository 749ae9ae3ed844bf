"""Fluid simulator fault support: hooks, restart warm-up, determinism."""

import numpy as np
import pytest

from repro.faults import FaultSchedule, FluidLinkDegrade, fluid_restart
from repro.inet.scenarios import build_internet_scenario
from repro.inet.simulator import FluidSimulator


@pytest.fixture(scope="module")
def scenario():
    return build_internet_scenario(
        n_as=150, n_legit_sources=300, n_legit_ases=40, n_bots=3_000,
        target_capacity=150.0, seed=6,
    )


class TestHooks:
    def test_tick_hooks_fire_each_tick(self, scenario):
        sim = FluidSimulator(scenario, strategy="nd", seed=3)
        ticks = []
        sim.add_tick_hook(lambda s, t: ticks.append(t))
        sim.run(ticks=15, warmup=5)
        assert ticks == list(range(15))

    def test_spawn_rng_matches_engine_derivation(self, scenario):
        sim = FluidSimulator(scenario, strategy="nd", seed=3)
        a = sim.spawn_rng("faults")
        b = sim.spawn_rng("faults")
        assert a.random() == b.random()
        assert a is not b


class TestRestartDefense:
    def test_restart_wipes_floc_state_and_sets_warmup(self, scenario):
        sim = FluidSimulator(scenario, strategy="floc", seed=3)
        sim.run(ticks=80, warmup=40)
        assert sim.n_groups > 0
        sim.restart_defense(80, warmup_ticks=30)
        assert sim.n_groups == 0
        assert sim._plan is None and sim._group_of_as is None
        assert not sim._flagged.any()
        assert np.all(sim._rate_ewma == 0.0)
        assert sim._warmup_until == 110

    def test_warmup_admission_is_neutral(self, scenario):
        sim = FluidSimulator(scenario, strategy="floc", seed=3)
        sim.restart_defense(0, warmup_ticks=100)
        rates = sim._send_rates()
        arrivals = rates * sim._upstream_survival(rates)[sim.origin]
        during = sim._admit_floc(arrivals, tick=10)
        neutral = sim._admit_nd(arrivals)
        assert np.allclose(during, neutral)

    def test_warmup_expires_and_floc_resumes(self, scenario):
        sim = FluidSimulator(scenario, strategy="floc", seed=3)
        faults = FaultSchedule().at(40, fluid_restart(warmup_ticks=20))
        faults.install(sim)
        sim.run(ticks=120, warmup=0)
        assert sim._warmup_until is None
        assert sim.n_groups > 0  # aggregation rebuilt after warm-up

    def test_degrade_recovers_after_restore(self, scenario):
        sim = FluidSimulator(scenario, strategy="floc", seed=3)
        counts = np.bincount(
            scenario.flow_origin_as[~scenario.flow_is_attack],
            minlength=scenario.n_links,
        )
        counts[0] = 0
        for asn in scenario.attack_ases:
            counts[asn] = 0
        degrade = FluidLinkDegrade(int(counts.argmax()), factor=0.2)
        faults = FaultSchedule()
        faults.at(60, degrade.down, name="down")
        faults.at(100, degrade.up, name="up")
        faults.install(sim)
        result = sim.run(ticks=160, warmup=20, record_series=True)
        legit = [ll + la for _, ll, la, _ in result.series]
        pre = np.mean(legit[:40])  # ticks 20..59
        post = np.mean(legit[120:])  # ticks 140..159
        assert post >= 0.8 * pre
        assert [t for t, _ in faults.log] == [60, 100]
