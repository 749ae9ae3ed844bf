"""Drop provenance: every engine drop carries exactly one traced cause.

A seeded two-domain scenario (legitimate TCP plus CBR attackers behind
one domain) runs under FLoc with full tracing; the traced tallies must
agree exactly with both the policy's own ``drop_stats`` bookkeeping and
the engine's per-link drop totals — no drop untraced, none
double-counted — and every cause must sit in the §V pipeline order.
"""

import pytest

from repro.core.config import FLocConfig
from repro.core.router import FLocPolicy
from repro.telemetry import DROP_CAUSES, Telemetry, precedence, use
from repro.traffic.scenarios import build_tree_scenario


@pytest.fixture(scope="module")
def traced_run():
    tel = Telemetry(mode="trace")
    with use(tel):
        scenario = build_tree_scenario(
            scale_factor=0.05,
            attack_kind="cbr",
            attack_rate_mbps=2.0,
            seed=3,
            start_spread_seconds=0.5,
        )
        policy = FLocPolicy(FLocConfig(s_max=25))
        scenario.attach_policy(policy)
        scenario.run_seconds(6.0)
    return tel, scenario, policy


class TestEveryDropHasOneCause:
    def test_cause_labels_are_known(self, traced_run):
        tel, _, _ = traced_run
        for event in tel.trace.events("drop"):
            assert event.data["cause"] in DROP_CAUSES

    def test_traced_count_equals_engine_drops(self, traced_run):
        tel, scenario, _ = traced_run
        engine_drops = sum(
            link.dropped_total for link in scenario.engine.topology.links()
        )
        counter = tel.registry.labeled("drops_by_cause_packets")
        assert sum(counter.values()) == engine_drops
        assert tel.trace.counts_by_kind.get("drop", 0) == engine_drops

    def test_tallies_match_policy_drop_stats(self, traced_run):
        # the FLoc link is the only drop site in this topology, so the
        # policy's own per-cause bookkeeping and the traced provenance
        # must agree cause by cause
        tel, _, policy = traced_run
        counter = tel.registry.labeled("drops_by_cause_packets")
        for cause, n in policy.drop_stats.items():
            assert counter.get(cause, 0) == n, cause

    def test_some_drops_happened(self, traced_run):
        # the scenario is a flood: an empty trace would mean the
        # instrumentation is dead, not that FLoc is perfect
        tel, _, _ = traced_run
        assert tel.trace.counts_by_kind.get("drop", 0) > 0

    def test_provenance_view_matches_counter(self, traced_run):
        tel, _, _ = traced_run
        counter = tel.registry.labeled("drops_by_cause_packets")
        assert tel.drop_provenance() == {
            str(k): float(v) for k, v in counter.items()
        }


class TestPipelinePrecedence:
    def test_section_v_ordering(self, traced_run):
        # capability/identification stages precede the congestion-mode
        # stages; the queue tail is always last
        tel, _, _ = traced_run
        seen = {e.data["cause"] for e in tel.trace.events("drop")}
        for cause in seen:
            assert precedence(cause) <= precedence("dead_link")
        assert precedence("preferential") < precedence("token")
        assert precedence("token") < precedence("overflow")

    def test_events_are_tick_keyed_and_monotone(self, traced_run):
        tel, _, _ = traced_run
        ticks = [e.tick for e in tel.trace.events("drop")]
        assert ticks == sorted(ticks)
