"""Section VI tree scenario construction."""

import pytest

from repro.errors import ConfigError
from repro.traffic.scenarios import DST_HUB, ROOT, build_tree_scenario


class TestStructure:
    def test_paper_tree_has_27_paths(self):
        sc = build_tree_scenario(scale_factor=0.05, attack_kind="none")
        assert len(sc.path_ids) == 27
        assert len(set(sc.path_ids)) == 27

    def test_path_ids_end_at_root_as(self):
        sc = build_tree_scenario(scale_factor=0.05, attack_kind="none")
        # all paths share the root AS as their final (router-side) element
        assert len({pid[-1] for pid in sc.path_ids}) == 1
        # height-3 tree: origin + 2 interior + root = 4 AS hops
        assert all(len(pid) == 4 for pid in sc.path_ids)

    def test_six_attack_paths(self):
        sc = build_tree_scenario(scale_factor=0.05, attack_kind="cbr")
        assert len(sc.attack_path_ids) == 6
        assert len(sc.legit_path_ids) == 21

    def test_flow_counts_scale(self):
        sc = build_tree_scenario(scale_factor=0.1, attack_kind="cbr")
        assert len(sc.legit_flows) == 27 * 3  # 30 * 0.1 = 3 per leaf
        assert len(sc.attack_flows) == 6 * 6  # 60 * 0.1 = 6 per attack leaf

    def test_capacity_scales_with_flows(self):
        # use scales where per-leaf counts divide evenly, so integer
        # rounding of flow counts does not distort the comparison
        lo = build_tree_scenario(scale_factor=0.1, attack_kind="none")
        hi = build_tree_scenario(scale_factor=0.2, attack_kind="none")
        per_flow_lo = lo.capacity / len(lo.legit_flows)
        per_flow_hi = hi.capacity / len(hi.legit_flows)
        # per-flow fair share is scale-invariant (within rounding)
        assert per_flow_lo == pytest.approx(per_flow_hi, rel=0.15)

    def test_target_link_configured(self):
        sc = build_tree_scenario(scale_factor=0.05, attack_kind="none")
        link = sc.topology.link(ROOT, DST_HUB)
        assert link.capacity == pytest.approx(sc.capacity)
        assert link.buffer is not None and link.buffer > 0

    def test_unknown_attack_kind_rejected(self):
        with pytest.raises(ConfigError):
            build_tree_scenario(attack_kind="quantum")


class TestAttackVariants:
    def test_attack_flows_marked(self):
        sc = build_tree_scenario(scale_factor=0.05, attack_kind="cbr")
        assert all(f.is_attack for f in sc.attack_flows)
        assert not any(f.is_attack for f in sc.legit_flows)

    def test_covert_creates_fanout_flows(self):
        sc = build_tree_scenario(
            scale_factor=0.05, attack_kind="covert", covert_fanout=4
        )
        # each bot owns `fanout` flows
        n_bots = len(sc.attack_sources)
        assert len(sc.attack_flows) == 4 * n_bots
        # destinations differ within one bot
        by_host = {}
        for flow in sc.attack_flows:
            by_host.setdefault(flow.src_host, set()).add(flow.dst_host)
        assert all(len(dsts) == 4 for dsts in by_host.values())

    def test_legit_count_overrides(self):
        sc = build_tree_scenario(
            scale_factor=1.0,
            attack_kind="none",
            legit_per_leaf=4,
            legit_count_overrides={0: 2, 1: 2},
        )
        per_leaf = {}
        for flow in sc.legit_flows:
            per_leaf[flow.path_id] = per_leaf.get(flow.path_id, 0) + 1
        counts = sorted(per_leaf.values())
        assert counts.count(2) == 2
        assert counts.count(4) == 25

    def test_none_attack_kind_has_no_attackers(self):
        sc = build_tree_scenario(scale_factor=0.05, attack_kind="none")
        assert sc.attack_flows == []
        assert sc.attack_sources == []


class TestRun:
    def test_runs_and_measures(self, no_attack_tree):
        monitor = no_attack_tree.add_target_monitor(start_seconds=1.0)
        no_attack_tree.run_seconds(3.0)
        assert monitor.total_serviced > 0
