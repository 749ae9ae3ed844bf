"""The churn flood the sketch-mode tests share.

The Fig. 5 tree at scale 0.03 with its CBR flood plus re-handshaking and
stale-capability :class:`PathChurnFloodSource` bots (identifier space of
500, so evicted identifiers do return) against a 64-path sketch-backed
router, and a digest over everything the router and the target monitor
hold afterwards.
"""

import hashlib

import numpy as np

from repro.core.config import FLocConfig
from repro.core.router import FLocPolicy
from repro.traffic import PathChurnFloodSource
from repro.traffic.scenarios import build_tree_scenario


#: Short intervals, a fast conformance EWMA and a small |S|_max: attack
#: paths are convicted and aggregated by tick 175 and again after each
#: mid-run event, so group keys are ``AGG-*`` tuples as well as path ids.
AGGREGATING = dict(
    s_max=10,
    measure_interval=25,
    aggregation_interval=50,
    beta=0.4,
    restart_warmup_ticks=50,
)


def build(**cfg):
    """``(engine, policy, monitor)``; ``cfg`` goes to :class:`FLocConfig`."""
    scenario = build_tree_scenario(
        scale_factor=0.03,
        attack_kind="cbr",
        attack_rate_mbps=4.0,
        seed=3,
        start_spread_seconds=0.5,
    )
    engine, topology = scenario.engine, scenario.topology
    rate = scenario.units.mbps_to_pkts_per_tick(2.0)
    leaf_of_as = {asn: leaf for leaf, asn in scenario.as_of_leaf.items()}
    start_rng = engine.spawn_rng("lock-churn-start")
    bot = 0
    for pid in scenario.attack_path_ids:
        leaf = leaf_of_as[pid[0]]
        for i in range(4):
            host = f"c_{pid[0]}_{i}"
            topology.add_duplex_link(host, leaf, capacity=None)
            flow = engine.open_flow(
                host, scenario.servers[0], pid, is_attack=True
            )
            rehandshake = bot % 2 == 0
            engine.add_source(
                PathChurnFloodSource(
                    flow,
                    rate,
                    churn_interval=20 if rehandshake else 1,
                    id_space=500,
                    rehandshake=rehandshake,
                    start_tick=start_rng.randrange(40),
                )
            )
            bot += 1
    policy = FLocPolicy(
        FLocConfig(state_backend="sketch", sketch_hot_paths=64, **cfg)
    )
    scenario.attach_policy(policy)
    monitor = scenario.add_target_monitor()
    return scenario.engine, policy, monitor


def sketch_cells(tier):
    """The nine cell arrays and the Bloom, in a fixed order."""
    values = (
        tier.lambda_sketch,
        tier.rtt_sketch,
        tier.conformance_sketch,
        tier.bucket_fill_sketch,
    )
    arrays = [a for s in values for a in (s._weight, s._wsum)]
    return arrays + [tier.unit_drop_sketch._cells, tier._seen_bits]


def assert_carried_equals_fresh(policy):
    """Every path/group entry carries exactly the hash positions its key
    derives right now; returns how many entries were checked."""
    tier = policy.sketch
    for pid, state in policy.paths.items():
        assert state.sketch_idx == tier.path_indices(pid)
    for key, group in policy.groups.items():
        assert group.key == key
        assert group.sketch_idx == tier.bucket_indices(key)
    return len(policy.paths) + len(policy.groups)


def state_digest(policy, monitor):
    h = hashlib.sha256()
    for cells in sketch_cells(policy.sketch):
        h.update(np.asarray(cells).tobytes())
    summary = (
        sorted(policy.sketch.stats().items()),
        sorted(policy.drop_stats.items()),
        sorted(policy.eviction_stats.items()),
        policy.tracked_paths_peak,
        policy.issuer.memoised_paths(),
        sorted(monitor.service_counts.items()),
        sorted(monitor.drop_counts.items()),
        sorted(map(repr, policy.groups)),
    )
    h.update(repr(summary).encode())
    return h.hexdigest()
