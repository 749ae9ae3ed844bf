"""Sketch-mode regression lock: a churn flood against a 64-path budget.

``TestExactModeRegressionLock`` pins the exact backend only; these pins
do the same for ``state_backend="sketch"``.  They were computed at
commit ``1a2bd0b`` (numpy-cell sketches, indices re-derived on every
fold and seed) and must keep passing unchanged: the digest covers every
sketch cell and Bloom byte, so a storage or hashing change that moves a
single bit of router state — or one admission decision — shows here.
The traffic is :func:`tests.sketch.churn.build`, for 400 ticks.
"""

import random

import pytest

from .churn import AGGREGATING, build, state_digest

TICKS = 400
SEGMENT = 25

def run(cfg, at=None, act=None):
    """400 ticks in 25-tick segments; ``act(policy, tick, scratch)`` runs
    once the engine reaches each tick listed in ``at``.  Returns the
    digest and the set of group-key kinds (``"pid"``, ``"AGG-A"``,
    ``"AGG-L"``) seen at the segment boundaries."""
    engine, policy, monitor = build(**cfg)
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
    assert policy.sketch.revivals_total > 1000
    assert policy.sketch.collisions_total > 0
    return state_digest(policy, monitor), kinds


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


PINNED = {
    "plain": "e9e81f77b60f32f6eb0ae11ab87a6a039b16bb7d08ff3691895317641f191a85",
    "aggregating": "5d946a5c446fe011684ef64068497ae55faf01a9194f6a417c3fcd5bfc38f825",
    "restart": "3976d74bf5e6b22291669884bbd7bb413912e40100b2cb015cbc897babad618b",
    "snapshot-restore": "921cf6a3bbd3068a37c800455960f2bf34cd95e47553d3d458cdccc9cd9f8d49",
    "corrupt-state": "06c3659c8cc7c67a2c0fc16350ebb03c595a3bc0ba1da1e7cf70de2ed2e98bf4",
}

CASES = {
    "plain": ({}, None, None),
    "aggregating": (AGGREGATING, None, None),
    "restart": (AGGREGATING, (200,), restart),
    "snapshot-restore": (AGGREGATING, (200, 300), snapshot_then_restore),
    "corrupt-state": (AGGREGATING, (250,), corrupt),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sketch_mode_digest_unchanged(case):
    cfg, at, act = CASES[case]
    digest, kinds = run(cfg, at, act)
    assert "pid" in kinds
    if cfg:
        # group keys that are not path ids: their bucket rows must be
        # hashed from the key, never borrowed from a member path
        assert {"AGG-A", "AGG-L"} <= kinds
    assert digest == PINNED[case]
