"""Runtime invariant sanitizer: clean runs pass, corruption is caught."""

import numpy as np
import pytest

from repro.core.config import FLocConfig
from repro.core.router import FLocPolicy
from repro.errors import ConfigError, InvariantViolation
from repro.faults import (
    CounterCorruption,
    FaultSchedule,
    FluidCounterCorruption,
)
from repro.inet.scenarios import build_internet_scenario
from repro.inet.simulator import FluidSimulator
from repro.sanitize import (
    MODES,
    EngineSanitizer,
    FluidSanitizer,
    install_sanitizer,
)
from repro.traffic.scenarios import build_tree_scenario


def make_scenario(seed=3):
    scenario = build_tree_scenario(
        scale_factor=0.05, attack_kind="cbr", attack_rate_mbps=2.0, seed=seed
    )
    scenario.attach_policy(FLocPolicy(FLocConfig(s_max=25)))
    return scenario


def make_sim(seed=7, **overrides):
    kwargs = dict(
        variant="f-root", n_as=120, n_legit_sources=300, n_legit_ases=30,
        n_bots=2_000, target_capacity=200.0, seed=seed,
    )
    kwargs.update(overrides)
    scenario = build_internet_scenario(**kwargs)
    return FluidSimulator(scenario, strategy="floc", s_max=40, seed=seed)


class TestInstall:
    def test_install_dispatches_on_host_type(self):
        scenario = make_scenario()
        assert isinstance(
            install_sanitizer(scenario.engine, "record"), EngineSanitizer
        )
        assert isinstance(install_sanitizer(make_sim(), "record"), FluidSanitizer)

    def test_off_and_none_install_nothing(self):
        scenario = make_scenario()
        assert install_sanitizer(scenario.engine, None) is None
        assert install_sanitizer(scenario.engine, "off") is None

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            install_sanitizer(make_scenario().engine, "paranoid")

    def test_modes_constant(self):
        assert MODES == ("strict", "record")


class TestCleanRuns:
    def test_engine_strict_clean_run_passes(self):
        scenario = make_scenario()
        sanitizer = install_sanitizer(scenario.engine, "strict")
        scenario.run_seconds(3.0)
        assert sanitizer.report.ok
        assert sanitizer.report.checks_run > 0

    def test_fluid_strict_clean_run_passes(self):
        sim = make_sim()
        sanitizer = install_sanitizer(sim, "strict")
        sim.run(ticks=120, warmup=40)
        assert sanitizer.report.ok
        assert sanitizer.report.checks_run > 0


class TestCorruptionDetection:
    def test_ledger_corruption_caught_within_one_tick(self):
        scenario = make_scenario()
        faults = FaultSchedule()
        faults.at(40, CounterCorruption("root", "dsthub", target="ledger"),
                  name="skew")
        faults.install(scenario.engine)
        sanitizer = install_sanitizer(scenario.engine, "strict")
        with pytest.raises(InvariantViolation) as err:
            scenario.run_seconds(3.0)
        assert err.value.invariant == "conservation"
        assert err.value.tick <= 41  # detected no later than the next tick

    def test_token_corruption_caught(self):
        scenario = make_scenario()
        faults = FaultSchedule()
        faults.at(60, CounterCorruption("root", "dsthub", target="tokens"),
                  name="negtok")
        faults.install(scenario.engine)
        sanitizer = install_sanitizer(scenario.engine, "strict")
        with pytest.raises(InvariantViolation) as err:
            scenario.run_seconds(3.0)
        assert err.value.invariant == "token-nonnegative"
        assert err.value.tick <= 61

    def test_fluid_rate_corruption_caught(self):
        sim = make_sim()
        faults = FaultSchedule()
        faults.at(60, FluidCounterCorruption(fraction=0.1), name="negrate")
        faults.install(sim)
        sanitizer = install_sanitizer(sim, "strict")
        with pytest.raises(InvariantViolation) as err:
            sim.run(ticks=120, warmup=40)
        assert err.value.invariant == "rate-nonnegative"
        assert err.value.tick <= 61
        # the diagnostic names a real, corrupted flow
        flow = int(err.value.detail.split()[1])
        assert 0 <= flow < sim.n_flows
        assert sim._rate_ewma[sim.flow_class[flow]] < 0

    def test_fluid_over_admission_of_a_collapsed_class_caught(self):
        """A class stands for ``count`` flows: its per-member admitted
        volume counts that many times against the target capacity."""
        sim = make_sim()
        sanitizer = install_sanitizer(sim, "strict")
        sim.begin_run(ticks=1, warmup=0)
        cap = sim.scn.target_capacity
        big = int(np.argmax(sim.count))
        assert sim.count[big] > 2.0
        admitted = np.zeros(sim.n_classes)
        admitted[big] = 2.0 * cap / sim.count[big]  # twice the link in all
        sim._last_admitted = admitted
        assert admitted.sum() <= cap  # an unweighted sum would miss it
        with pytest.raises(InvariantViolation) as err:
            sanitizer(sim, 1)
        assert err.value.invariant == "capacity"

    def test_stale_route_resolution_caught_within_one_tick(self):
        # a link replaced behind a primed route cache, with the engine's
        # invalidation bypassed: new emissions still resolve to the old
        # object, which the topology no longer holds
        scenario = make_scenario()
        engine = scenario.engine
        install_sanitizer(engine, "strict")
        engine.run(200)
        scenario.topology.add_link("root.0", "root")
        engine._links_revision = scenario.topology.revision
        with pytest.raises(InvariantViolation) as err:
            engine.run(50)
        assert err.value.invariant == "route-links"
        assert err.value.tick <= 201

    def test_corrupted_packet_links_caught_within_one_tick(self):
        scenario = make_scenario()
        engine = scenario.engine
        install_sanitizer(engine, "strict")
        engine.run(200)
        target = scenario.topology.link(*scenario.target)
        pkt = target.queue[0]
        wrong = scenario.topology.link("root.0", "root")
        pkt.links = pkt.links[: pkt.hop] + (wrong,) + pkt.links[pkt.hop + 1 :]
        with pytest.raises(InvariantViolation) as err:
            engine.run(1)
        assert err.value.invariant == "route-links"
        assert err.value.tick == 200

    def test_record_mode_collects_without_raising(self):
        scenario = make_scenario()
        faults = FaultSchedule()
        faults.at(40, CounterCorruption("root", "dsthub", target="ledger"),
                  name="skew")
        faults.install(scenario.engine)
        sanitizer = install_sanitizer(scenario.engine, "record")
        scenario.run_seconds(3.0)  # does not raise
        assert not sanitizer.report.ok
        assert any(
            v.invariant == "conservation"
            for v in sanitizer.report.violations
        )

    def test_violation_carries_diagnostics(self):
        exc = InvariantViolation("conservation", 42, "off by 7")
        assert exc.invariant == "conservation"
        assert exc.tick == 42
        assert "tick 42" in str(exc) and "conservation" in str(exc)


class TestReport:
    def test_report_rows_and_summary(self):
        scenario = make_scenario()
        sanitizer = install_sanitizer(scenario.engine, "record")
        scenario.run_seconds(1.0)
        assert "0 violation" in sanitizer.report.summary()
        assert sanitizer.report.rows() == []

    def test_check_interval_thins_checks(self):
        s1 = make_scenario(seed=5)
        every = EngineSanitizer(mode="record", check_interval=1)
        every.install(s1.engine)
        s2 = make_scenario(seed=5)
        sparse = EngineSanitizer(mode="record", check_interval=10)
        sparse.install(s2.engine)
        s1.run_seconds(1.0)
        s2.run_seconds(1.0)
        assert sparse.report.checks_run < every.report.checks_run

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigError):
            EngineSanitizer(mode="strict", check_interval=0)
