"""Fluid simulator: conservation, strategies, paper-shape outcomes."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.inet.scenarios import build_internet_scenario
from repro.inet.simulator import FluidSimulator


@pytest.fixture(scope="module")
def scenario():
    return build_internet_scenario(
        n_as=300, n_legit_sources=800, n_legit_ases=60, n_bots=8_000,
        target_capacity=400.0, seed=13,
    )


def run(scenario, strategy, s_max=None, ticks=250, warmup=120):
    sim = FluidSimulator(scenario, strategy=strategy, s_max=s_max, seed=3)
    return sim.run(ticks=ticks, warmup=warmup)


class TestMechanics:
    def test_unknown_strategy_rejected(self, scenario):
        with pytest.raises(ConfigError):
            FluidSimulator(scenario, strategy="magic")

    # a hand-built scenario skips build_internet_scenario's checks;
    # unchecked, 0 divided by zero in finish_run and NaN returned NaN
    # shares
    @pytest.mark.parametrize("strategy", ["nd", "ff", "floc"])
    @pytest.mark.parametrize(
        "capacity", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_degenerate_target_capacity_rejected(
        self, scenario, strategy, capacity
    ):
        bad = dataclasses.replace(scenario, target_capacity=capacity)
        with pytest.raises(ConfigError, match="target_capacity"):
            FluidSimulator(bad, strategy=strategy)

    def test_shares_bounded(self, scenario):
        result = run(scenario, "nd")
        total = sum(result.shares.values())
        assert 0.0 <= total <= 1.0 + 1e-9
        assert result.utilization <= 1.0 + 1e-9

    def test_upstream_survival_within_unit_interval(self, scenario):
        sim = FluidSimulator(scenario, strategy="nd")
        rates = sim._send_rates()
        surv = sim._upstream_survival(rates)
        assert np.all(surv >= 0.0) and np.all(surv <= 1.0 + 1e-12)

    def test_admission_never_exceeds_arrivals(self, scenario):
        sim = FluidSimulator(scenario, strategy="floc")
        rates = sim._send_rates()
        surv = sim._upstream_survival(rates)
        arrivals = rates * surv[sim.class_origin]
        admitted = sim._admit_floc(arrivals, 0)
        assert np.all(admitted <= arrivals + 1e-9)
        admitted_total = float(np.sum(sim.count * admitted))
        assert admitted_total <= scenario.target_capacity + 1e-6

    def test_series_recording(self, scenario):
        sim = FluidSimulator(scenario, strategy="ff")
        result = sim.run(ticks=60, warmup=30, record_series=True)
        assert len(result.series) == 30


class TestPaperShapes:
    def test_nd_denies_legitimate_service(self, scenario):
        result = run(scenario, "nd")
        assert result.legit_total < 0.10

    def test_ff_partial_protection(self, scenario):
        nd = run(scenario, "nd")
        ff = run(scenario, "ff")
        assert ff.legit_total > 3 * max(nd.legit_total, 0.01)
        assert ff.shares["attack"] > 0.3  # attackers still dominate

    def test_floc_strong_protection(self, scenario):
        ff = run(scenario, "ff")
        floc = run(scenario, "floc")
        assert floc.legit_total > ff.legit_total
        assert floc.legit_total > 0.5

    def test_aggregation_favors_legitimate_paths(self, scenario):
        na = run(scenario, "floc", s_max=None)
        agg = run(scenario, "floc", s_max=40)
        assert agg.shares["legit_in_legit"] >= na.shares["legit_in_legit"] - 0.02
        assert agg.shares["legit_in_attack"] <= na.shares["legit_in_attack"] + 0.02

    def test_legit_flows_in_attack_ases_beat_bots_per_flow(self, scenario):
        result = run(scenario, "floc")
        assert (
            result.per_flow_mean["legit_in_attack"]
            > result.per_flow_mean["attack"]
        )

    def test_full_utilization_under_flood(self, scenario):
        for strategy in ("nd", "ff", "floc"):
            result = run(scenario, strategy)
            assert result.utilization > 0.9
