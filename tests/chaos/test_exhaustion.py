"""Exhaustion campaigns: spec extension, serialization, sampler, sweep."""

import pytest

from repro.chaos import ChaosOptions, CampaignSpec, chaos_tasks
from repro.chaos.spec import (
    DEFAULT_BOUNDED_FLOOR,
    SAMPLED_PACKET_ATTACKER_KINDS,
    AttackerSpec,
    SloSpec,
    exhaustion_campaign,
    sample_campaign,
)
from repro.errors import ConfigError


def base_spec(**overrides):
    base = dict(
        seed=1,
        simulator="packet",
        warmup_ticks=100,
        window_ticks=50,
        n_windows=4,
        attackers=(AttackerSpec(kind="cbr"),),
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestSpecExtension:
    def test_churn_flood_requires_period(self):
        spec = base_spec(attackers=(AttackerSpec(kind="churn-flood"),))
        with pytest.raises(ConfigError):
            spec.validate()

    def test_churn_flood_with_period_validates(self):
        base_spec(
            attackers=(AttackerSpec(kind="churn-flood", period_ticks=25),)
        ).validate()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            base_spec(state_backend="bloom").validate()

    def test_fluid_sketch_combination_rejected(self):
        with pytest.raises(ConfigError):
            base_spec(simulator="fluid", state_backend="sketch").validate()

    def test_bad_max_tracked_paths_rejected(self):
        with pytest.raises(ConfigError):
            base_spec(max_tracked_paths=0).validate()

    def test_bounded_floor_range_checked(self):
        with pytest.raises(ConfigError):
            base_spec(slo=SloSpec(bounded_floor=1.5)).validate()


class TestSerializationCompat:
    def test_default_spec_dict_omits_new_keys(self):
        # digest stability: an exact-mode spec serializes exactly as the
        # seed code serialized it
        d = base_spec().to_dict()
        assert "state_backend" not in d
        assert "max_tracked_paths" not in d
        assert "bounded_floor" not in d["slo"]

    def test_old_shape_dict_loads(self):
        d = base_spec().to_dict()
        spec = CampaignSpec.from_dict(d)
        assert spec.state_backend == "exact"
        assert spec.max_tracked_paths is None
        assert spec.slo.bounded_floor is None

    def test_sketch_spec_round_trips(self):
        spec = base_spec(
            attackers=(AttackerSpec(kind="churn-flood", period_ticks=25),),
            state_backend="sketch",
            max_tracked_paths=64,
            slo=SloSpec(bounded_floor=0.2),
        )
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_generic_sampler_never_emits_churn_flood(self):
        # seed-pinned sweeps must keep sampling from the historical pool
        assert "churn-flood" not in SAMPLED_PACKET_ATTACKER_KINDS
        for index in range(20):
            spec = sample_campaign(3, index, simulator="packet")
            assert all(a.kind != "churn-flood" for a in spec.attackers)


class TestExhaustionCampaign:
    def test_deterministic(self):
        assert exhaustion_campaign(5, 2) == exhaustion_campaign(5, 2)

    def test_indices_diverge(self):
        specs = [exhaustion_campaign(5, i) for i in range(6)]
        assert len(set(specs)) > 1

    def test_shape(self):
        spec = exhaustion_campaign(0, 0, max_tracked_paths=48)
        spec.validate()
        assert spec.simulator == "packet"
        assert spec.state_backend == "sketch"
        assert spec.max_tracked_paths == 48
        assert spec.slo.bounded_floor == DEFAULT_BOUNDED_FLOOR
        assert any(a.kind == "churn-flood" for a in spec.attackers)
        assert not spec.faults

    def test_exact_backend_variant(self):
        spec = exhaustion_campaign(0, 0, state_backend="exact")
        spec.validate()
        assert spec.state_backend == "exact"


class TestExecution:
    #: run digests of ``exhaustion_campaign(7, 1)`` at commit ``16d0649``
    #: (before the router authenticated first): its churn squad
    #: re-handshakes, so the admission order cannot show in the outcome
    PINNED = {
        "sketch": "98fede1445265462aeec5f811cac15bb1766ffbb86e033f2a3881ebc9a6a103c",
        "exact": "929bbde2de758340f7328b3765cff69624ecec7b38a39b7797821802aca75459",
    }

    @pytest.mark.parametrize("backend", sorted(PINNED))
    def test_budget_holds_for_every_container(self, backend):
        from repro.chaos.campaign import run_campaign
        from repro.core.router import STATE_BOUNDS

        spec = exhaustion_campaign(7, 1, state_backend=backend)
        result = run_campaign(spec, verify_replay=False)
        assert result.digest == self.PINNED[backend]
        peaks = result.measurements.state_peaks
        assert sorted(peaks) == sorted(STATE_BOUNDS)
        assert peaks["paths"] == result.measurements.tracked_paths_peak == 64
        assert result.measurements.eviction_stats["memory-pressure"] > 100
        assert not result.report.violates("bounded_state")
        verdict = result.report.verdicts[-1]
        assert verdict.slo == "bounded_state"
        assert "EXCEEDED" not in verdict.detail


class TestSweepWiring:
    def test_exhaustion_units_appended(self):
        tasks = chaos_tasks(
            ChaosOptions(campaigns=2, exhaustion=2, max_tracked_paths=64)
        )
        assert [task.name for task in tasks] == [
            "campaign-000",
            "campaign-001",
            "exhaustion-000",
            "exhaustion-001",
        ]
        for task in tasks[2:]:
            spec = CampaignSpec.from_dict(task.spec)
            assert spec.state_backend == "sketch"
            assert spec.max_tracked_paths == 64

    def test_zero_exhaustion_is_the_default(self):
        assert len(chaos_tasks(ChaosOptions(campaigns=2))) == 2

    def test_negative_exhaustion_rejected(self):
        with pytest.raises(ConfigError):
            ChaosOptions(exhaustion=-1).validate()
