"""Byte-level regression lock on the packet engine.

The digests were computed at commit 1fc6a78 — before routes were resolved
to ``Link`` tuples, wire links forwarded without queueing and TCP sources
slept between events — and every later engine change must reproduce them:
same link-processing order, same arrival order on every link, same RNG
draw order.

The 300-tick FLoc runs end before the MTD has identified anyone (the CBR
run makes no preferential drop), so :data:`LONG_PINNED` also holds three
FLoc variants over 2,000 ticks, where identified attack units are
refused on every tick: the exact tracker, the sketch backend under a
64-path budget, and the Section V-B drop filter.  Their digests also
cover the router's drop causes, each unit's retained drop count and each
path's identification streaks.
"""

import hashlib
import json

import pytest

from repro import FLocConfig, FLocPolicy, build_tree_scenario
from repro.net.policy import DropTailPolicy

PINNED = {
    ("tcp", "droptail"): (
        "41e53b67eea2e53812256a8f152d8534385e8cc56fe9176568bce7d93625e530"
    ),
    ("tcp", "floc"): (
        "f6b56ff06f70aea5206e311b1b9badacb73e70dbcb5996f5d44b623c67dc6389"
    ),
    ("cbr", "droptail"): (
        "2c9e8a682a1ff39d74b58526cd9c96241a240360c461825618ad8180147ea045"
    ),
    ("cbr", "floc"): (
        "56d8d6083581e39d71f6e99ded8e2bd439a02785b024e1285ce02d6086f5a723"
    ),
    ("shrew", "droptail"): (
        "59466af3a578710b3e82961336bea5dcb2878722287e0f04a79a33ca5c0573ac"
    ),
    ("shrew", "floc"): (
        "e9ab50845c5b9e8f277ff3b183650627160b5eb914ca0c33e0e72f0c33ded115"
    ),
    ("covert", "droptail"): (
        "0f3aab45a818134aa5f4287ed358d66a14de48f71576513f0534d4272c8002df"
    ),
    ("covert", "floc"): (
        "9ee4c2a9374870554d97fe01d4d748b622dc7629840301d0743e345d4502c6e5"
    ),
}


def packets_sent(source):
    subsources = getattr(source, "_subsources", None)  # CovertSource
    if subsources is None:
        return source.packets_sent
    return [sub.packets_sent for sub in subsources]


#: 2,000-tick CBR runs (scale 0.03, seed 3) under FLoc variants, by name:
#: at tick 2,000 the exact run has made 28,547 preferential drops.
LONG_CONFIGS = {
    "exact": FLocConfig(),
    "sketch": FLocConfig(state_backend="sketch", sketch_hot_paths=64),
    "drop-filter": FLocConfig(use_drop_filter=True),
}

LONG_PINNED = {
    "exact": (
        "d97aaf40353216f046111e936c3f498241c7c4104b549b1cad3d13f2e58c62df"
    ),
    "sketch": (
        "e75fa19ffefd73569018b991b2641c388b2d05233528371454f01a768aef9b8b"
    ),
    "drop-filter": (
        "0884f9591674c82740827c7e80fe6c0e780ed6a0516378e77d9ac31cb2576ef7"
    ),
}


def run_digest(attack_kind: str, policy_name: str, ticks: int = 300) -> str:
    policy = (
        DropTailPolicy() if policy_name == "droptail" else FLocPolicy(FLocConfig())
    )
    return _digest(attack_kind, policy, ticks, with_router=False)


def router_state(policy: FLocPolicy) -> dict:
    """What the refusal path writes: drop causes, every unit's retained
    drop records, and the streaks that escalate Eq. IV.5."""
    tracker = policy.tracker
    drop_count = None  # the drop filter keeps no per-unit record
    if tracker is not None:
        drop_count = sorted(
            (repr(unit), tracker.drop_count(unit)) for unit in tracker.units()
        )
    streaks = sorted(
        (repr(pid), sorted((repr(k), n) for k, n in state.attack_streak.items()))
        for pid, state in policy.paths.items()
    )
    return {
        "drop_stats": policy.drop_stats,
        "drop_count": drop_count,
        "attack_streak": streaks,
    }


def _digest(attack_kind: str, policy, ticks: int, with_router: bool) -> str:
    scenario = build_tree_scenario(
        scale_factor=0.03, attack_kind=attack_kind, seed=3
    )
    scenario.attach_policy(policy)
    monitor = scenario.add_target_monitor()
    scenario.engine.run(ticks)
    payload = {
        "links": [
            [repr(link.ends), link.serviced_total, link.dropped_total]
            for link in scenario.topology.links()
        ],
        "service": sorted(monitor.service_counts.items()),
        "drops": sorted(monitor.drop_counts.items()),
        "sent": [
            packets_sent(source)
            for source in scenario.legit_sources + scenario.attack_sources
        ],
    }
    if with_router:
        payload["router"] = router_state(policy)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("attack_kind,policy_name", sorted(PINNED))
def test_tree_run_digest_unchanged(attack_kind, policy_name):
    assert run_digest(attack_kind, policy_name) == PINNED[(attack_kind, policy_name)]


@pytest.mark.parametrize("variant", sorted(LONG_PINNED))
def test_long_floc_run_digest_unchanged(variant):
    policy = FLocPolicy(LONG_CONFIGS[variant])
    digest = _digest("cbr", policy, 2000, with_router=True)
    assert digest == LONG_PINNED[variant]
