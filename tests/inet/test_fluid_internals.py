"""Fluid-simulator internals: admission strategies in isolation.

The simulator works per class (one per origin AS and kind, ``count``
members each), so volumes are summed with each class weighted by its
count."""

import numpy as np
import pytest

from repro.inet.scenarios import build_internet_scenario
from repro.inet.simulator import FluidSimulator


@pytest.fixture(scope="module")
def sim():
    scenario = build_internet_scenario(
        n_as=150, n_legit_sources=300, n_legit_ases=40, n_bots=2_500,
        target_capacity=200.0, seed=19,
    )
    return FluidSimulator(scenario, strategy="floc", s_max=None, seed=2)


def arrivals_of(sim):
    rates = sim._send_rates()
    surv = sim._upstream_survival(rates)
    return rates * surv[sim.class_origin]


def total(sim, per_member):
    return float(np.sum(sim.count * per_member))


class TestAdmitNd:
    def test_under_capacity_passes_through(self, sim):
        arrivals = np.full(sim.n_classes, 200.0 / sim.n_flows / 2)
        admitted = sim._admit_nd(arrivals)
        assert np.allclose(admitted, arrivals)

    def test_over_capacity_scales_proportionally(self, sim):
        arrivals = np.full(sim.n_classes, 1.0)
        admitted = sim._admit_nd(arrivals)
        assert total(sim, admitted) == pytest.approx(200.0)
        assert np.allclose(admitted / arrivals, admitted[0] / arrivals[0])


class TestAdmitFf:
    def test_high_priority_pool_shared_fairly(self, sim):
        arrivals = arrivals_of(sim)
        admitted = sim._admit_ff(arrivals)
        cap = sim.scn.target_capacity
        assert total(sim, admitted) <= cap + 1e-6
        legit = ~sim._class_attack
        fair = cap / sim.n_flows
        # attack high-priority share per flow never exceeds min(a, fair)
        # scaled by the common pool factor
        hp_cap = np.minimum(arrivals[~legit], fair)
        assert np.all(admitted[~legit] <= hp_cap + 1e-9)

    def test_legit_flows_never_zeroed(self, sim):
        arrivals = arrivals_of(sim)
        admitted = sim._admit_ff(arrivals)
        legit = ~sim._class_attack
        sending = legit & (arrivals > 1e-9)
        assert np.all(admitted[sending] > 0)


class TestAdmitFloc:
    def test_group_allocations_sum_to_capacity(self, sim):
        sim._rebuild_groups()
        shares = sim._group_shares
        alloc = sim.scn.target_capacity * shares / shares.sum()
        assert alloc.sum() == pytest.approx(sim.scn.target_capacity)

    def test_flagging_targets_bots(self, sim):
        arrivals = arrivals_of(sim)
        # warm the rate EWMA so the flag test sees sustained rates
        for _ in range(30):
            sim._rate_ewma += 0.1 * (sim._send_rates() - sim._rate_ewma)
        sim._admit_floc(arrivals, tick=0)
        flagged = sim._flagged
        if flagged.any():
            attack = flagged & sim._class_attack
            assert total(sim, attack) / total(sim, flagged) > 0.9

    def test_conservation(self, sim):
        arrivals = arrivals_of(sim)
        admitted = sim._admit_floc(arrivals, tick=0)
        assert total(sim, admitted) <= sim.scn.target_capacity + 1e-6
        assert np.all(admitted >= -1e-12)
        assert np.all(admitted <= arrivals + 1e-9)


class TestUpstream:
    def test_tree_conservation(self, sim):
        """Admitted traffic into the root never exceeds the sum of what
        the leaf links admitted."""
        rates = sim._send_rates()
        surv = sim._upstream_survival(rates)
        arrival_total = total(sim, rates * surv[sim.class_origin])
        assert arrival_total <= total(sim, rates) + 1e-6

    def test_bot_heavy_subtrees_lose_more_upstream(self, sim):
        rates = sim._send_rates()
        surv = sim._upstream_survival(rates)
        # per-flow means: each class weighted by its member count
        surv = surv[sim.class_origin]
        attack = sim._class_attack
        attack_surv = np.average(surv[attack], weights=sim.count[attack])
        legit_surv = np.average(surv[~attack], weights=sim.count[~attack])
        assert attack_surv <= legit_surv + 1e-9
