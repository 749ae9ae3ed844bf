"""FLocPolicy end-to-end behaviour on the congested link."""

import random

import pytest

from repro.core.config import FLocConfig
from repro.core.router import FLocPolicy
from repro.net.engine import Engine
from repro.net.packet import DATA, SYN, Packet
from repro.net.topology import Topology
from repro.traffic.scenarios import build_tree_scenario


def run_floc(scenario, config=None, seconds=6.0, warmup=2.0):
    policy = FLocPolicy(config or FLocConfig())
    scenario.attach_policy(policy)
    monitor = scenario.add_target_monitor(start_seconds=warmup)
    scenario.run_seconds(seconds)
    return policy, monitor


class TestCapabilities:
    def test_syn_receives_capability(self, no_attack_tree):
        policy, _ = run_floc(no_attack_tree, seconds=3.0, warmup=0.5)
        # every established legit source holds a router-issued capability
        established = [
            s for s in no_attack_tree.legit_sources if s.established
        ]
        assert established
        assert all(s.capability is not None for s in established)

    def test_spoofed_data_dropped(self, no_attack_tree):
        policy, _ = run_floc(no_attack_tree, seconds=2.0, warmup=0.5)
        flow = no_attack_tree.legit_flows[0]
        forged = Packet(
            flow_id=flow.flow_id,
            kind=DATA,
            seq=10_000,
            path_id=flow.path_id,
            route=flow.route,
            src_addr=flow.src_host,
            dst_addr=flow.dst_host,
            sent_tick=0,
            capability=b"\x00" * 16,
        )
        before = policy.drop_stats["spoofed"]
        assert not policy.admit(forged, no_attack_tree.engine.tick)
        policy.on_drop(forged, no_attack_tree.engine.tick)
        assert policy.drop_stats["spoofed"] == before + 1


class TestStateTracking:
    def test_paths_registered(self, small_tree):
        policy, _ = run_floc(small_tree)
        assert set(policy.paths) == set(small_tree.path_ids)

    def test_flow_counts_roughly_correct(self, small_tree):
        policy, _ = run_floc(small_tree)
        counted = sum(len(s.flows) for s in policy.paths.values())
        actual = len(small_tree.legit_flows) + len(small_tree.attack_flows)
        assert counted == pytest.approx(actual, rel=0.25)

    def test_rtt_estimates_reasonable(self, small_tree):
        policy, _ = run_floc(small_tree)
        # base RTT is ~2*(height+2) ticks; SYN->data measures the
        # router->dst->src->router loop which is close to the full RTT
        for state in policy.paths.values():
            assert 2.0 <= state.rtt_ewma <= 60.0

    def test_conformance_separates_attack_paths(self, small_tree):
        policy, _ = run_floc(small_tree, seconds=8.0)
        snapshot = {p: policy.conformance.value(p) for p in policy.paths}
        attack = set(small_tree.attack_path_ids)
        attack_vals = [v for p, v in snapshot.items() if p in attack]
        legit_vals = [v for p, v in snapshot.items() if p not in attack]
        assert max(attack_vals) < min(1.0, sum(legit_vals) / len(legit_vals))


class TestAttackHandling:
    def test_attack_units_identified(self, small_tree):
        policy, _ = run_floc(small_tree, seconds=8.0)
        # most CBR bots are identified (they share one accounting unit
        # per bot here)
        assert len(policy.identified_attack_units()) >= len(
            small_tree.attack_flows
        ) * 0.5

    def test_preferential_drops_happen(self, small_tree):
        policy, _ = run_floc(small_tree, seconds=8.0)
        assert policy.drop_stats["preferential"] > 0

    def test_legit_flows_beat_bots_per_flow(self, small_tree):
        _, monitor = run_floc(small_tree, seconds=10.0, warmup=4.0)
        attack_paths = set(small_tree.attack_path_ids)
        legit_in_attack = [
            monitor.service_counts.get(f.flow_id, 0)
            for f in small_tree.legit_flows
            if f.path_id in attack_paths
        ]
        bots = [
            monitor.service_counts.get(f.flow_id, 0)
            for f in small_tree.attack_flows
        ]
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(legit_in_attack) > 1.3 * mean(bots)

    def test_legit_paths_guaranteed_bandwidth(self, small_tree):
        _, monitor = run_floc(small_tree, seconds=10.0, warmup=4.0)
        window = small_tree.units.seconds_to_ticks(6.0)
        attack_paths = set(small_tree.attack_path_ids)
        legit_leaf_total = sum(
            monitor.service_counts.get(f.flow_id, 0)
            for f in small_tree.legit_flows
            if f.path_id not in attack_paths
        )
        share = legit_leaf_total / (small_tree.capacity * window)
        # 21 of 27 paths are legitimate: their flows keep the bulk of it
        assert share > 0.55

    def test_aggregation_respects_s_max(self, small_tree):
        policy, _ = run_floc(small_tree, config=FLocConfig(s_max=25), seconds=8.0)
        assert policy.plan.n_groups <= 25


class TestAblations:
    def test_no_preferential_drop_hurts_legit_in_attack_paths(self):
        def bot_share(preferential):
            scenario = build_tree_scenario(
                scale_factor=0.05, attack_kind="cbr", seed=5,
                start_spread_seconds=0.5,
            )
            cfg = FLocConfig(preferential_drop=preferential)
            _, monitor = run_floc(scenario, cfg, seconds=8.0, warmup=3.0)
            bots = sum(
                monitor.service_counts.get(f.flow_id, 0)
                for f in scenario.attack_flows
            )
            return bots

        assert bot_share(True) < bot_share(False)

    def test_drop_filter_mode_runs(self, small_tree):
        cfg = FLocConfig(use_drop_filter=True)
        policy, monitor = run_floc(small_tree, cfg, seconds=6.0)
        assert policy.drop_filter is not None
        assert policy.tracker is None
        assert monitor.total_serviced > 0


class TestPendingRecord:
    """A refusal's pending record names its packet: whatever happens to
    the ``on_drop`` that should have consumed it, it labels no other
    packet's drop."""

    @staticmethod
    def refused(policy, tick=1):
        """A forged DATA packet, refused and left pending."""
        forged = Packet(7, DATA, 0, (1, 9), ("a", "b"), "h", "srv", tick,
                        b"\x00" * 16)
        assert not policy.admit(forged, tick)
        assert policy.pending_drop_cause() == "spoofed"
        return forged

    @staticmethod
    def policy():
        topo = Topology()
        topo.add_duplex_link("a", "b", capacity=10.0, buffer=50)
        policy = FLocPolicy(FLocConfig())
        policy.attach(topo.link("a", "b"), Engine(topo, seed=1))
        return policy

    def test_stale_record_does_not_label_another_packets_drop(self):
        policy = self.policy()
        syn = Packet(1, SYN, 0, (1, 9), ("a", "b"), "h", "srv", 0)
        assert policy.admit(syn, 0)
        data = Packet(1, DATA, 1, (1, 9), ("a", "b"), "h", "srv", 1,
                      syn.capability)
        assert policy.admit(data, 1)
        self.refused(policy)  # a wrapper swallows this refusal's on_drop
        policy.on_drop(data, 1)  # the admitted packet overflows the buffer
        assert policy.drop_stats["spoofed"] == 0
        assert policy.drop_stats["overflow"] == 1
        # recorded in full, as any tail drop of an authenticated packet is
        unit = policy.issuer.account_key("h", "srv", (1, 9))
        assert policy.tracker.drop_count(unit) == 1
        assert policy.groups[(1, 9)].interval_drops == 1
        # and the stale record went with it
        assert policy.pending_drop_cause() is None

    def test_own_packet_consumes_its_record(self):
        policy = self.policy()
        forged = self.refused(policy)
        policy.on_drop(forged, 1)
        assert policy.drop_stats["spoofed"] == 1
        assert policy.drop_stats["overflow"] == 0
        assert policy.pending_drop_cause() is None

    @pytest.mark.parametrize("event", ["restart", "restore", "corrupt_state"])
    def test_state_replacement_clears_the_record(self, event):
        policy = self.policy()
        snap = policy.snapshot()
        self.refused(policy)
        if event == "restart":
            policy.restart(2)
        elif event == "restore":
            policy.restore(snap)
        else:
            policy.corrupt_state(0.5, random.Random(1))
        assert policy.pending_drop_cause() is None
        assert policy._judged_tick == -1
