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

:data:`BASELINE_PINNED` holds each default baseline of
:func:`repro.experiments.common.make_policy` on the same CBR tree over
2,000 ticks, long enough for RED's early drops, RED-PD's monitoring,
Pushback's limiters and CDF-PSP's trained profile to act.  Their digests
also cover each baseline's own counters (:func:`baseline_state`).
"""

import hashlib
import json

import pytest

from repro import FLocConfig, FLocPolicy, build_tree_scenario
from repro.experiments.common import FunctionalSettings, make_policy
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


BASELINE_PINNED = {
    "cdfpsp": (
        "5cb1a3824b152649ec3354f89fd6c337d65d3c9538bf0118c4a0721c4eb749d9"
    ),
    "fairshare": (
        "fd9faf3f566249b8b09742ad7f485e6475a6c24b0849354d7bdbea8322374495"
    ),
    "pushback": (
        "baadb15413089ac8ae5c86723de81880cf7840562d7c8c278eaae0f16993b909"
    ),
    "randomdrop": (
        "7516ad17e9152e795c9b5f3af070153050b2ddd93b24bf2d181587de995928aa"
    ),
    "red": (
        "e5bab17af0d5376296c105680a7445268a617dec1196e920607bfe507810ab7a"
    ),
    "redpd": (
        "fbf8822194f213b1bafc0ad1b729c6db9b892916c617ac2bed9fd04cc56b3bd5"
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


def baseline_state(policy) -> dict:
    """A baseline's own counters and the state that drives its drops."""
    state = {}
    red = getattr(policy, "queue", policy)  # Pushback queues through RED
    if hasattr(red, "early_drops"):
        state["red"] = [red.forced_drops, red.early_drops, red.avg]
    if hasattr(policy, "prefilter_drops"):  # RED-PD
        state["redpd"] = [
            policy.prefilter_drops,
            sorted((repr(k), m.drop_prob) for k, m in policy.monitored.items()),
        ]
    if hasattr(policy, "limiter_drops"):  # Pushback
        state["pushback"] = [
            policy.limiter_drops,
            sorted((repr(k), lim.rate) for k, lim in policy.limiters.items()),
        ]
    if hasattr(policy, "low_priority_drops"):  # FairShare, CDF-PSP
        state["low_priority_drops"] = policy.low_priority_drops
    if hasattr(policy, "fair_rate"):
        state["fair_rate"] = policy.fair_rate
    if hasattr(policy, "history"):  # CDF-PSP's trained profile
        state["history"] = sorted(
            (repr(k), rate) for k, rate in policy.history.items()
        )
    return state


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
        payload["router"] = (
            router_state(policy)
            if isinstance(policy, FLocPolicy)
            else baseline_state(policy)
        )
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


@pytest.mark.parametrize("scheme", sorted(BASELINE_PINNED))
def test_baseline_run_digest_unchanged(scheme):
    policy = make_policy(scheme, FunctionalSettings())
    digest = _digest("cbr", policy, 2000, with_router=True)
    assert digest == BASELINE_PINNED[scheme]
