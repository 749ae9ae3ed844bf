"""Campaign execution: determinism, both backends, the §IV-B lock."""

import pytest

from repro.chaos import (
    AttackerSpec,
    CampaignSpec,
    FaultSpec,
    SloSpec,
    default_slo,
    run_campaign,
)
from repro.chaos.campaign import execute_campaign
from repro.chaos.spec import FLUID_SHAPE, PACKET_SHAPE
from repro.errors import ConfigError
from repro.inet.simulator import FluidSimulator


def packet_spec(**overrides):
    base = dict(
        seed=5,
        simulator="packet",
        warmup_ticks=150,
        window_ticks=100,
        n_windows=4,
        scale=0.05,
        faults=(FaultSpec(kind="router_restart", tick=300),),
        attackers=(
            AttackerSpec(
                kind="cbr", bots=2, rate_mbps=2.0, mutations=("rerandomize",)
            ),
        ),
        slo=SloSpec(),
    )
    base.update(overrides)
    return CampaignSpec(**base)


def fluid_spec(**overrides):
    base = dict(
        seed=5,
        simulator="fluid",
        warmup_ticks=120,
        window_ticks=60,
        n_windows=4,
        faults=(FaultSpec(kind="router_restart", tick=240),),
        attackers=(
            AttackerSpec(
                kind="fluid-bots", period_ticks=30, mutations=("rerandomize",)
            ),
        ),
        slo=SloSpec(floor=0.3),
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestDeterminism:
    def test_packet_execution_is_bit_identical(self):
        a = execute_campaign(packet_spec())
        b = execute_campaign(packet_spec())
        assert a.digest == b.digest
        assert a.windows == b.windows
        assert a.fault_log == b.fault_log

    def test_fluid_execution_is_bit_identical(self):
        a = execute_campaign(fluid_spec())
        b = execute_campaign(fluid_spec())
        assert a.digest == b.digest
        assert a.windows == b.windows

    # ``fluid_spec()``'s digest since it also reads ``FluidResult.shares``
    # and each window's attack share
    FLUID_PIN = (
        "6112fce5f15b8d6188cd944b305c5e34c8c2defed97ec845a6c74c20a541a414"
    )

    def test_fluid_digest_is_pinned(self):
        assert execute_campaign(fluid_spec()).digest == self.FLUID_PIN

    def test_fluid_digest_reads_the_end_of_run_shares(self, monkeypatch):
        finish_run = FluidSimulator.finish_run

        def nudged(sim):
            result = finish_run(sim)
            result.shares = {
                k: v * (1 + 1e-9) for k, v in result.shares.items()
            }
            return result

        monkeypatch.setattr(FluidSimulator, "finish_run", nudged)
        m = execute_campaign(fluid_spec())
        assert m.digest != self.FLUID_PIN

    def test_fluid_digest_reads_the_attack_share(self, monkeypatch):
        series_point = FluidSimulator._series_point

        def nudged(sim, tick, admitted):
            t, ll, la, at = series_point(sim, tick, admitted)
            return t, ll, la, at * (1 + 1e-9)

        base = execute_campaign(fluid_spec())
        monkeypatch.setattr(FluidSimulator, "_series_point", nudged)
        m = execute_campaign(fluid_spec())
        assert m.windows == base.windows
        assert m.digest != base.digest

    def test_replay_slo_passes_on_both_backends(self):
        for spec in (packet_spec(), fluid_spec()):
            result = run_campaign(spec, verify_replay=True)
            assert not result.report.violates("replay"), spec.simulator

    def test_different_seeds_change_the_digest(self):
        assert (
            execute_campaign(packet_spec(seed=5)).digest
            != execute_campaign(packet_spec(seed=6)).digest
        )


class TestExecution:
    def test_scheduled_faults_fire_and_are_logged(self):
        m = execute_campaign(packet_spec())
        assert [t for t, _ in m.fault_log] == [300]

    def test_windows_cover_the_measurement_region(self):
        spec = packet_spec()
        m = execute_campaign(spec)
        assert len(m.windows) == spec.n_windows
        for i, w in enumerate(m.windows):
            assert (w.start, w.stop) == spec.window_bounds(i)
            assert 0.0 <= w.legit_share <= 1.1  # small queueing overshoot

    def test_link_flap_reroutes_and_recovers(self):
        spec = packet_spec(
            faults=(FaultSpec(kind="link_flap", tick=300, duration=60),)
        )
        m = execute_campaign(spec)
        assert [name for _, name in m.fault_log] == [
            "link-down root.0->root",
            "link-up root.0->root",
        ]
        result = run_campaign(spec, verify_replay=False)
        assert not result.report.violates("floor")

    def test_sanitizer_off_skips_installation(self):
        spec = packet_spec(slo=SloSpec(sanitize="off"))
        m = execute_campaign(spec)
        assert m.sanitizer_violations == 0

    def test_counter_corruption_is_caught_by_the_sanitizer_slo(self):
        spec = packet_spec(
            faults=(FaultSpec(kind="counter_corruption", tick=300),)
        )
        result = run_campaign(spec, verify_replay=False)
        assert result.measurements.sanitizer_violations > 0
        assert result.report.violates("sanitizer")

    def test_unvalidated_spec_is_rejected(self):
        spec = packet_spec(
            faults=(FaultSpec(kind="router_restart", tick=10_000),)
        )
        with pytest.raises(ConfigError):
            execute_campaign(spec)

    def test_fluid_degrade_fault_depresses_then_recovers(self):
        spec = fluid_spec(
            faults=(
                FaultSpec(
                    kind="link_degrade", tick=240, duration=40, param=0.1
                ),
            )
        )
        m = execute_campaign(spec)
        assert [name for _, name in m.fault_log] == [
            "uplink-degrade",
            "uplink-restore",
        ]


class TestStrategyIndependenceLock:
    """Regression lock on the paper's §IV-B claim: MTD identification is
    strategy-independent, so rate re-randomization does not let attackers
    push the legitimate share below the shipped floor."""

    def test_packet_rerandomizing_cbr_cannot_break_the_floor(self):
        spec = CampaignSpec(
            seed=2024,
            simulator="packet",
            scale=0.05,
            attackers=(
                AttackerSpec(
                    kind="cbr",
                    bots=4,
                    rate_mbps=2.5,
                    mutations=("rerandomize",),
                ),
                AttackerSpec(
                    kind="cbr",
                    bots=4,
                    rate_mbps=2.5,
                    mutations=("rerandomize", "churn"),
                ),
            ),
            slo=default_slo("packet"),
            **PACKET_SHAPE,
        )
        result = run_campaign(spec, verify_replay=False)
        assert not result.report.violates("floor"), result.report.rows()

    def test_fluid_rate_randomizer_cannot_break_the_floor(self):
        spec = CampaignSpec(
            seed=2024,
            simulator="fluid",
            attackers=(
                AttackerSpec(
                    kind="fluid-bots",
                    period_ticks=30,
                    mutations=("rerandomize",),
                ),
            ),
            slo=default_slo("fluid"),
            **FLUID_SHAPE,
        )
        result = run_campaign(spec, verify_replay=False)
        assert not result.report.violates("floor"), result.report.rows()
