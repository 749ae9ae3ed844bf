"""Byte-level regression lock on the packet engine.

The digests were computed at commit 1fc6a78 — before routes were resolved
to ``Link`` tuples, wire links forwarded without queueing and TCP sources
slept between events — and every later engine change must reproduce them:
same link-processing order, same arrival order on every link, same RNG
draw order.
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


def run_digest(attack_kind: str, policy_name: str, ticks: int = 300) -> str:
    scenario = build_tree_scenario(
        scale_factor=0.03, attack_kind=attack_kind, seed=3
    )
    policy = (
        DropTailPolicy() if policy_name == "droptail" else FLocPolicy(FLocConfig())
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
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("attack_kind,policy_name", sorted(PINNED))
def test_tree_run_digest_unchanged(attack_kind, policy_name):
    assert run_digest(attack_kind, policy_name) == PINNED[(attack_kind, policy_name)]
