"""FIG-6: attack confinement for TCP / CBR / Shrew attacks.

The first test runs the figure at the Section VI setting.  The second
checks its CBR case directly on the router, at a scale that runs in
about a second, on two seeds.
"""

import collections

import pytest

from repro import FLocConfig, FLocPolicy, build_tree_scenario
from repro.experiments.common import mean
from repro.experiments.fig06 import run_fig06
from repro.net.policy import DropTailPolicy

from . import SETTINGS

WARMUP_TICKS = 800  # FLoc convicts the attack paths between 600 and 800
WINDOW_TICKS = 2000


@pytest.mark.parametrize("attack_kind", ["tcp", "cbr", "shrew"])
def test_fig06_confinement(attack_kind):
    result = run_fig06(attack_kind, SETTINGS)
    legit = result.legit_path_means
    attack = result.attack_path_means

    fair = result.fair_path_mbps
    # paper shape: every legitimate path keeps close to its fair share —
    # the attack is confined to the paths that originate it
    assert mean(legit) > 0.75 * fair
    assert min(legit) > 0.45 * fair
    # attack paths never take grossly more than their allocation
    assert mean(attack) < 1.6 * fair

    if attack_kind == "tcp":
        # adaptive attackers are indistinguishable per flow; confinement
        # keeps every path near fair regardless of population
        assert max(attack) < 1.8 * fair
    else:
        # for CBR/Shrew the token bucket activates early on attack paths:
        # legitimate paths do at least as well as under the TCP attack
        assert mean(legit) > 0.8 * fair


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
