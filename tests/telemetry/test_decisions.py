"""The pure decision helpers telemetry traces are built from, and the
FLoc decision counters a traced run actually produces."""

import math

import pytest

from repro.core.aggregation import AggregationPlan, plan_moves
from repro.core.config import FLocConfig
from repro.core.conformance import ConformanceTracker
from repro.core.router import FLocPolicy
from repro.core.tokenbucket import PathTokenBucket
from repro.telemetry import Telemetry, use
from repro.traffic.scenarios import build_tree_scenario
from tests.core.crafted import CraftedRouter


def identity_plan(pids):
    """Every path its own group with one bandwidth share."""
    plan = AggregationPlan()
    for pid in pids:
        plan.add_group(pid, [pid], 1.0)
    return plan


class TestPlanMoves:
    def _plans(self):
        old = identity_plan([(1,), (2,), (3,)])
        new = AggregationPlan()
        new.add_group(("AGG-A", 0), [(1,)], 0.1)   # (1,) demoted
        new.add_group((2,), [(2,)], 0.4)
        new.add_group(("AGG-L", 0), [(3,)], 0.5)   # (3,) regrouped
        return old, new

    def test_demote_and_regroup(self):
        old, new = self._plans()
        moves = plan_moves(old, new, [(1,), (2,), (3,)])
        kinds = {pid: kind for pid, _, _, kind in moves}
        assert kinds == {(1,): "demote", (3,): "regroup"}

    def test_promote_is_the_reverse(self):
        old, new = self._plans()
        moves = plan_moves(new, old, [(1,), (2,), (3,)])
        kinds = {pid: kind for pid, _, _, kind in moves}
        assert kinds[(1,)] == "promote"

    def test_unchanged_paths_produce_no_moves(self):
        plan = identity_plan([(1,), (2,)])
        assert plan_moves(plan, plan, [(1,), (2,)]) == []


class TestClassifiers:
    def test_conformance_labels(self):
        assert ConformanceTracker.classify_value(0.3, 0.5) == "attack"
        assert ConformanceTracker.classify_value(0.5, 0.5) == "legit"
        tracker = ConformanceTracker(beta=0.5)
        tracker.update((1,), n_flows=10, n_attack=10)
        classify = ConformanceTracker.classify_value
        assert classify(tracker.value((1,)), 0.8) == "attack"
        assert classify(tracker.value((2,)), 0.8) == "legit"

    def test_mtd_classification_precedence(self):
        # FLocPolicy's refresh on three units of one path whose MTDs sit
        # far below, below and above half the reference MTD: the block
        # test subsumes the attack test
        router = CraftedRouter(
            sources=("block", "attack", "benign"),
            attack_mtd_fraction=0.5, block_mtd_fraction=1.0 / 64.0,
        )
        policy = router.policy
        interval = policy.cfg.measure_interval
        policy.on_tick(interval)  # buckets sized for the three units
        group = router.group
        ref = policy._reference_mtd(group)
        window = policy._mtd_window(group)
        drops = {
            "block": math.ceil(128 * window / ref),
            "attack": math.ceil(4 * window / ref),
            "benign": max(1, math.floor(window / ref)),
        }
        assert window / drops["block"] < ref / 64
        assert ref / 64 <= window / drops["attack"] < ref / 2
        assert window / drops["benign"] >= ref / 2
        tick = 2 * interval
        for src, count in drops.items():
            for _ in range(count):
                policy.tracker.record_drop(router.unit(src), tick)
        policy.on_tick(tick)
        assert policy._reference_mtd(group) == ref
        streaks = router.state.attack_streak
        assert router.unit("block") in policy._blocked
        assert router.unit("block") in streaks
        assert router.unit("attack") not in policy._blocked
        assert router.unit("attack") in streaks
        assert router.unit("benign") not in policy._blocked
        assert router.unit("benign") not in streaks


class TestTokenBucketCounters:
    def test_requests_and_denials_tally(self):
        bucket = PathTokenBucket(bandwidth=2.0, rtt=10.0, n_flows=1.0)
        bucket.tokens = 3.0
        outcomes = [bucket.request() for _ in range(5)]
        assert outcomes.count(True) == 3
        assert bucket.requests_total == 5
        assert bucket.denials_total == 2


class TestLiveDecisionMetrics:
    @pytest.fixture(scope="class")
    def traced(self):
        tel = Telemetry(mode="trace")
        with use(tel):
            scenario = build_tree_scenario(
                scale_factor=0.05, attack_kind="cbr", attack_rate_mbps=2.0,
                seed=3, start_spread_seconds=0.5,
            )
            scenario.attach_policy(FLocPolicy(FLocConfig(s_max=25)))
            scenario.run_seconds(6.0)
        return tel

    def test_token_grants_counted(self, traced):
        assert traced.registry.counter("token_grants_count").value > 0

    def test_mtd_transitions_traced(self, traced):
        # a CBR flood must surface at least one identification event
        assert traced.registry.counter("mtd_transitions_count").value > 0
        kinds = traced.trace.counts_by_kind
        assert kinds.get("mtd_identify", 0) > 0

    def test_queue_depth_histogram_populated(self, traced):
        hist = traced.registry.get("floc_queue_depth_packets")
        assert hist is not None and hist.total > 0

    def test_aggregation_moves_traced_when_plans_change(self, traced):
        # Algorithm 1 runs every refresh; with s_max below the path count
        # the plan must have changed at least once during the flood
        assert traced.registry.counter("aggregation_moves_count").value > 0
