"""The paper's shape claims, at a scale that runs in seconds.

The pinned digests prove that a rewrite did not *change* the router;
these prove that it still does what the paper says it does (ROADMAP
3(d)).  First in: Fig. 6 under a CBR flood.
"""

import collections

import pytest

from repro import FLocConfig, FLocPolicy, build_tree_scenario
from repro.net.policy import DropTailPolicy

WARMUP_TICKS = 800  # FLoc convicts the attack paths between 600 and 800
WINDOW_TICKS = 2000


def target_shares(policy, seed):
    """``(legitimate share of the target link's capacity, {legitimate
    path: its share over the per-path fair share})`` in the window, on
    the Fig. 5 tree at scale 0.03 (27 TCP sources, one per leaf; 12 CBR
    bots at 2 Mbps on 6 of the leaves, 1.5x the link between them)."""
    scenario = build_tree_scenario(
        scale_factor=0.03, attack_kind="cbr", attack_rate_mbps=2.0, seed=seed
    )
    scenario.attach_policy(policy)
    scenario.engine.run(WARMUP_TICKS)
    monitor = scenario.add_target_monitor()
    monitor.start_tick = WARMUP_TICKS
    scenario.engine.run(WINDOW_TICKS)
    path_of = {f.flow_id: f.path_id for f in scenario.legit_flows}
    per_path = collections.Counter()
    for flow_id, serviced in monitor.service_counts.items():
        if flow_id in path_of:
            per_path[path_of[flow_id]] += serviced
    capacity = scenario.capacity * WINDOW_TICKS
    fair = capacity / len(scenario.path_ids)
    return (
        sum(per_path.values()) / capacity,
        {pid: per_path[pid] / fair for pid in scenario.legit_path_ids},
    )


@pytest.mark.parametrize("seed", [3, 7])
def test_fig6_legitimate_paths_hold_the_link_under_a_cbr_flood(seed):
    legit, paths = target_shares(FLocPolicy(FLocConfig()), seed)
    assert legit >= 0.9
    # every legitimate path within a factor of two of link / |paths|:
    # none starved, none riding on the others' allocation
    assert all(0.5 <= share <= 2.0 for share in paths.values()), paths
    # the same traffic through a router with no defense
    undefended, _ = target_shares(DropTailPolicy(), seed)
    assert undefended < 0.15
