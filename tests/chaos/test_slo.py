"""SLO oracle layer: pure-arithmetic verdicts over synthetic windows."""

from repro.chaos import (
    AttackerSpec,
    CampaignSpec,
    FaultSpec,
    SloSpec,
    WindowShare,
    evaluate_slos,
)
from repro.chaos.slo import (
    SLO_NAMES,
    impact_interval,
    recovery_deadline,
    settle_ticks,
)


def spec_with(faults=(), slo=None):
    return CampaignSpec(
        seed=0,
        simulator="packet",
        warmup_ticks=100,
        window_ticks=50,
        n_windows=6,
        faults=tuple(faults),
        attackers=(AttackerSpec(kind="cbr"),),
        slo=slo or SloSpec(floor=0.5, epsilon=0.1),
    )


def windows(shares):
    return [
        WindowShare(index=i, start=100 + 50 * i, stop=150 + 50 * i,
                    legit_share=s)
        for i, s in enumerate(shares)
    ]


class TestFloorOracle:
    def test_all_windows_above_floor_pass(self):
        report = evaluate_slos(spec_with(), windows([0.9] * 6), 0)
        assert not report.violates("floor")

    def test_one_window_below_floor_fails(self):
        report = evaluate_slos(
            spec_with(), windows([0.9, 0.9, 0.3, 0.9, 0.9, 0.9]), 0
        )
        assert report.violates("floor")
        assert report.violated().slo == "floor"

    def test_fault_impacted_windows_are_excused(self):
        # the fault at 210 clears instantly; its impact interval extends
        # one settle window, excusing windows 2 and 3 ([200,250),[250,300))
        spec = spec_with(faults=[FaultSpec(kind="router_restart", tick=210)])
        shares = [0.9, 0.9, 0.1, 0.1, 0.9, 0.9]
        report = evaluate_slos(spec, windows(shares), 0)
        assert not report.violates("floor")

    def test_low_share_outside_impact_interval_still_fails(self):
        spec = spec_with(faults=[FaultSpec(kind="router_restart", tick=210)])
        shares = [0.9, 0.9, 0.1, 0.1, 0.9, 0.1]
        report = evaluate_slos(spec, windows(shares), 0)
        assert report.violates("floor")

    def test_impact_interval_covers_fault_window_plus_settle(self):
        spec = spec_with()
        fault = FaultSpec(kind="link_flap", tick=200, duration=30)
        start, stop = impact_interval(fault, spec)
        assert start == 200
        assert stop == 230 + settle_ticks(spec)


class TestRecoveryOracle:
    def test_no_faults_skips(self):
        report = evaluate_slos(spec_with(), windows([0.9] * 6), 0)
        verdict = [v for v in report.verdicts if v.slo == "recovery"][0]
        assert verdict.ok and "skipped" in verdict.detail

    def test_recovered_share_passes(self):
        spec = spec_with(faults=[FaultSpec(kind="router_restart", tick=150)])
        # deadline = 150 + 50 (settle) + 150 (slack) = 350 -> window 5
        shares = [0.9, 0.2, 0.2, 0.5, 0.7, 0.88]
        report = evaluate_slos(spec, windows(shares), 0)
        assert not report.violates("recovery")

    def test_depressed_share_after_deadline_fails(self):
        spec = spec_with(faults=[FaultSpec(kind="router_restart", tick=150)])
        shares = [0.9, 0.2, 0.2, 0.5, 0.7, 0.5]
        report = evaluate_slos(spec, windows(shares), 0)
        assert report.violates("recovery")

    def test_deadline_formula(self):
        spec = spec_with(
            faults=[FaultSpec(kind="link_flap", tick=200, duration=40)]
        )
        assert (
            recovery_deadline(spec)
            == 240 + settle_ticks(spec) + spec.slo.recovery_slack_ticks
        )

    def test_fault_too_late_for_any_post_window_skips(self):
        spec = spec_with(faults=[FaultSpec(kind="router_restart", tick=390)])
        report = evaluate_slos(spec, windows([0.9] * 6), 0)
        verdict = [v for v in report.verdicts if v.slo == "recovery"][0]
        assert verdict.ok and "skipped" in verdict.detail


class TestSanitizerOracle:
    def test_strict_mode_fails_on_violations(self):
        report = evaluate_slos(spec_with(), windows([0.9] * 6), 3)
        assert report.violates("sanitizer")

    def test_strict_mode_passes_clean(self):
        report = evaluate_slos(spec_with(), windows([0.9] * 6), 0)
        assert not report.violates("sanitizer")

    def test_record_mode_reports_without_failing(self):
        spec = spec_with(slo=SloSpec(floor=0.5, sanitize="record"))
        report = evaluate_slos(spec, windows([0.9] * 6), 3)
        assert not report.violates("sanitizer")

    def test_off_mode_skips(self):
        spec = spec_with(slo=SloSpec(floor=0.5, sanitize="off"))
        report = evaluate_slos(spec, windows([0.9] * 6), 99)
        assert not report.violates("sanitizer")


class TestReplayOracle:
    def test_unverified_skips(self):
        report = evaluate_slos(spec_with(), windows([0.9] * 6), 0, None)
        assert not report.violates("replay")

    def test_matching_digest_passes(self):
        report = evaluate_slos(spec_with(), windows([0.9] * 6), 0, True)
        assert not report.violates("replay")

    def test_diverging_digest_fails(self):
        report = evaluate_slos(spec_with(), windows([0.9] * 6), 0, False)
        assert report.violates("replay")


class TestReport:
    def test_violated_returns_first_failure_in_catalog_order(self):
        report = evaluate_slos(
            spec_with(), windows([0.1] * 6), 5, False
        )
        assert report.violated().slo == "floor"
        assert not report.ok

    def test_rows_cover_all_slos(self):
        report = evaluate_slos(spec_with(), windows([0.9] * 6), 0)
        assert [r[0] for r in report.rows()] == list(SLO_NAMES)


class TestBoundedStateOracle:
    def bounded_spec(self, floor=0.3, max_paths=None, faults=()):
        return CampaignSpec(
            seed=0,
            simulator="packet",
            warmup_ticks=100,
            window_ticks=50,
            n_windows=6,
            faults=tuple(faults),
            attackers=(AttackerSpec(kind="churn-flood", period_ticks=25),),
            slo=SloSpec(floor=0.5, bounded_floor=floor),
            state_backend="sketch",
            max_tracked_paths=max_paths,
        )

    def test_no_bounded_floor_skips(self):
        report = evaluate_slos(spec_with(), windows([0.9] * 6), 0)
        verdict = [v for v in report.verdicts if v.slo == "bounded_state"][0]
        assert verdict.ok and "skipped" in verdict.detail

    def test_share_above_bounded_floor_passes(self):
        report = evaluate_slos(
            self.bounded_spec(),
            windows([0.6] * 6),
            0,
            eviction_stats={"memory-pressure": 500},
            tracked_paths_peak=64,
        )
        assert not report.violates("bounded_state")

    def test_share_below_bounded_floor_fails(self):
        report = evaluate_slos(
            self.bounded_spec(floor=0.4),
            windows([0.6, 0.6, 0.1, 0.6, 0.6, 0.6]),
            0,
            eviction_stats={"memory-pressure": 500},
        )
        assert report.violates("bounded_state")

    def test_budget_exceeded_fails_even_with_good_share(self):
        report = evaluate_slos(
            self.bounded_spec(max_paths=64),
            windows([0.9] * 6),
            0,
            tracked_paths_peak=65,
        )
        assert report.violates("bounded_state")
        verdict = [v for v in report.verdicts if v.slo == "bounded_state"][0]
        assert "EXCEEDED" in verdict.detail

    def test_peak_within_budget_passes(self):
        report = evaluate_slos(
            self.bounded_spec(max_paths=64),
            windows([0.9] * 6),
            0,
            tracked_paths_peak=64,
        )
        assert not report.violates("bounded_state")

    def test_every_container_is_judged_and_the_offender_named(self):
        from repro.core.router import STATE_BOUNDS

        at_bound = {name: mult * 64 for name, mult in STATE_BOUNDS.items()}
        report = evaluate_slos(
            self.bounded_spec(max_paths=64),
            windows([0.9] * 6),
            0,
            tracked_paths_peak=64,
            state_peaks=at_bound,
        )
        assert not report.violates("bounded_state")
        for name in STATE_BOUNDS:
            report = evaluate_slos(
                self.bounded_spec(max_paths=64),
                windows([0.9] * 6),
                0,
                tracked_paths_peak=64,
                state_peaks={**at_bound, name: at_bound[name] + 1},
            )
            assert report.violates("bounded_state")
            verdict = [
                v for v in report.verdicts if v.slo == "bounded_state"
            ][0]
            assert f"{name} peak {at_bound[name] + 1}" in verdict.detail
            assert verdict.detail.count("EXCEEDED") == 1

    def test_fault_impacted_windows_are_excused(self):
        spec = self.bounded_spec(
            floor=0.4,
            faults=[FaultSpec(kind="router_restart", tick=210)],
        )
        shares = [0.9, 0.9, 0.1, 0.1, 0.9, 0.9]
        report = evaluate_slos(spec, windows(shares), 0)
        assert not report.violates("bounded_state")
