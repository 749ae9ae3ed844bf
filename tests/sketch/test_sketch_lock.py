"""Sketch-mode regression lock: a churn flood against a 64-path budget.

``TestExactModeRegressionLock`` pins the exact backend only; these pins
do the same for ``state_backend="sketch"``.  The digest covers every
sketch cell and Bloom byte, so a storage or hashing change that moves a
single bit of router state — or one admission decision — shows here.
The traffic is :func:`tests.sketch.churn.build`, for 400 ticks: a third
of its packets are forged (stale capabilities), the revival and
collision pressure comes from bots that hold valid ones.

The pins were computed at commit ``16d0649`` — a router that allocated
path state and recorded drops *before* it verified — running behind
:class:`tests.sketch.churn.PreVerified`, which filters unauthenticated
DATA out ahead of the policy.  A router that verifies first must
reproduce them with the filter removed, and the filter must stay a
no-op in front of it: *router on traffic T* ≡ *the old router on T
minus its forged packets*, up to the ``spoofed`` counter (which the
filter keeps for it).
"""

import random

import pytest

from .churn import AGGREGATING, build, state_digest

TICKS = 400
SEGMENT = 25

def run(cfg, at=None, act=None, pre_verified=False):
    """400 ticks in 25-tick segments; ``act(policy, tick, scratch)`` runs
    once the engine reaches each tick listed in ``at``.  Returns the
    digest, the set of group-key kinds (``"pid"``, ``"AGG-A"``,
    ``"AGG-L"``) seen at the segment boundaries, and the sketch tier's
    ``(revivals, collisions)``."""
    engine, policy, monitor = build(pre_verified=pre_verified, **cfg)
    kinds = set()
    scratch = {}
    while engine.tick < TICKS:
        engine.run(SEGMENT)
        kinds |= {
            k[0] if isinstance(k[0], str) else "pid" for k in policy.groups
        }
        if at and engine.tick in at:
            act(policy, engine.tick, scratch)
    assert policy.tracked_paths_peak == 64
    assert policy.drop_stats["spoofed"] > 5000
    tier = policy.sketch
    pressure = (tier.revivals_total, tier.collisions_total)
    return state_digest(policy, monitor), kinds, pressure


def snapshot_then_restore(policy, tick, scratch):
    """Snapshot at the first tick, rewind the policy to it at the second."""
    if "snap" not in scratch:
        scratch["snap"] = policy.snapshot()
    else:
        policy.restore(scratch["snap"])


def restart(policy, tick, scratch):
    policy.restart(tick)


def corrupt(policy, tick, scratch):
    policy.corrupt_state(0.5, random.Random(7))


#: case -> (digest, (revivals, collisions)): the pressure is in the
#: digest already; it is spelled out so a re-pin cannot quietly trade it
#: away (a restart empties the tier, a restore rewinds its counters)
PINNED = {
    "plain": (
        "1925c920778f2d59951bc64d9ae255bc20fdeb33ac4e5add28c0bf04ec3b47b9",
        (1143, 60),
    ),
    "aggregating": (
        "2c124108e8b366a5e4807121cc90c3ad86e2d21c0c9e8c899ace9f02fb9dfb76",
        (800, 51),
    ),
    "restart": (
        "44988c3142b8315ff996e2ef52874f34afd12c3bc5fc68ff8a4b627d19bea698",
        (389, 23),
    ),
    "snapshot-restore": (
        "9b23055b6baa5c36f0c521bb6cc7462a6977c7660f28a6574f5c9cb9072bc5d8",
        (549, 29),
    ),
    "corrupt-state": (
        "2941924d6a8a6ae2e8f2d2db66ab0993f4125dc7fc8f140e01d4fd213bb3591e",
        (836, 48),
    ),
}

CASES = {
    "plain": ({}, None, None),
    "aggregating": (AGGREGATING, None, None),
    "restart": (AGGREGATING, (200,), restart),
    "snapshot-restore": (AGGREGATING, (200, 300), snapshot_then_restore),
    "corrupt-state": (AGGREGATING, (250,), corrupt),
}


def check(case, pre_verified):
    cfg, at, act = CASES[case]
    digest, kinds, pressure = run(cfg, at, act, pre_verified)
    assert "pid" in kinds
    if cfg:
        # group keys that are not path ids: their bucket rows must be
        # hashed from the key, never borrowed from a member path
        assert {"AGG-A", "AGG-L"} <= kinds
    assert (digest, pressure) == PINNED[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_sketch_mode_digest_unchanged(case):
    check(case, pre_verified=False)


@pytest.mark.parametrize("case", sorted(CASES))
def test_filtering_forged_packets_first_changes_nothing(case):
    check(case, pre_verified=True)
