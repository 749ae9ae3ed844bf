"""Hash positions carried on the router's path/group entries.

In sketch mode a ``_PathState`` / ``_GroupState`` keeps the rows its
identifier hashes to (``sketch_idx``), derived once at allocation.  The
rule under test: the indices live on the entry that owns the key and
nowhere else — they equal a fresh derivation at every moment, survive
``snapshot``/``restore`` with the entry, and are unreachable once the
entry is released, expired, corrupted away or lost to a restart.
"""

import gc
import pickle
import random
import sys

import pytest

from repro.core.config import FLocConfig
from repro.sketch import BoundedPathState, sketch_indices

from ..core.test_bounded_router import attached_policy, touch
from .churn import (
    AGGREGATING,
    assert_carried_equals_fresh,
    build,
    sketch_cells,
    state_digest,
)


def sketch_policy(hot=4, **cfg):
    return attached_policy(
        FLocConfig(state_backend="sketch", sketch_hot_paths=hot, **cfg)
    )


class TestCarriedEqualsFresh:
    def test_through_churn_aggregation_and_every_state_loss(self):
        engine, policy, _ = build(**AGGREGATING)
        snap = None
        checked = aggregated = 0
        while engine.tick < 400:
            engine.run(25)
            if engine.tick == 150:
                snap = policy.snapshot()
            elif engine.tick == 200:
                policy.corrupt_state(0.5, random.Random(7))
            elif engine.tick == 250:
                policy.restore(snap)
            elif engine.tick == 300:
                policy.restart(engine.tick)
                assert not policy.paths and not policy.groups
            checked += assert_carried_equals_fresh(policy)
            aggregated += sum(isinstance(k[0], str) for k in policy.groups)
            assert len(policy.paths) <= 64
        assert checked > 1000 and aggregated > 0

    def test_exact_mode_carries_nothing(self):
        policy = attached_policy(FLocConfig(max_tracked_paths=4))
        for i in range(10):
            touch(policy, (i, 9), tick=i)
            policy._group_state((i, 9), tick=i)
        assert all(s.sketch_idx is None for s in policy.paths.values())
        assert all(g.sketch_idx is None for g in policy.groups.values())


class TestGroupRows:
    def test_singleton_group_shares_its_paths_rows(self):
        policy = sketch_policy()
        state = touch(policy, (1, 9), tick=0)
        group = policy._group_state((1, 9), tick=0)
        assert group.sketch_idx[0] is state.sketch_idx[0]
        # the Bloom rows are namespaced: never shared
        assert group.sketch_idx[1] != state.sketch_idx[1]

    def test_aggregated_key_never_borrows_a_paths_rows(self):
        policy = sketch_policy(hot=8)
        cfg = policy.cfg
        for pid in [(1, 9), (2, 9), (3, 7)]:
            touch(policy, pid, tick=0)
        policy.plan.add_group(("AGG-A", 9), [(1, 9), (2, 9)], 1.0)
        # one member, but keyed by the aggregate: not a singleton of pid
        policy.plan.add_group(("AGG-L", 7), [(3, 7)], 1.0)
        policy._rebuild_groups(tick=1)
        path_rows = [s.sketch_idx[0] for s in policy.paths.values()]
        for key in [("AGG-A", 9), ("AGG-L", 7)]:
            rows = policy.groups[key].sketch_idx[0]
            assert rows == sketch_indices(
                key, cfg.sketch_depth, cfg.sketch_width
            )
            assert all(rows is not shared for shared in path_rows)
            assert rows not in path_rows

    def test_regrouped_path_gets_a_group_hashed_from_the_new_key(self):
        # the plan maps the pid to an aggregate whose group was released:
        # the next packet re-creates it under the aggregate key
        policy = sketch_policy()
        touch(policy, (1, 9), tick=0)
        policy.plan.add_group(("AGG-A", 9), [(1, 9)], 1.0)
        group = policy._group_state((1, 9), tick=1)
        assert group.key == ("AGG-A", 9)
        assert group.sketch_idx == policy.sketch.bucket_indices(("AGG-A", 9))


def referrers(obj):
    """Objects still holding ``obj``, the calling frames aside."""
    gc.collect()
    frames = set()
    frame = sys._getframe()
    while frame is not None:
        frames.add(id(frame))
        frame = frame.f_back
    return [r for r in gc.get_referrers(obj) if id(r) not in frames]


def evict(policy):
    touch(policy, (2, 9), tick=1)
    touch(policy, (3, 9), tick=2)


def expire(policy):
    # (2, 9) stays alive, so the rebuild has groups to keep and retires
    # the dead path's
    tick = 2 * policy.cfg.flow_active_window
    touch(policy, (2, 9), tick=tick)
    policy._refresh(tick=tick)


def corrupt(policy):
    policy.corrupt_state(1.0, random.Random(1))
    # the orphaned group goes at the next rebuild that has a live path
    touch(policy, (2, 9), tick=1)
    policy._rebuild_groups(tick=1)


def restart(policy):
    policy.restart(tick=5)


class TestNothingOutlivesItsEntry:
    """After each way of losing an entry, no container in the process
    still reaches its index tuples: there is no side table."""

    @pytest.mark.parametrize(
        "lose", [evict, expire, corrupt, restart],
        ids=["release", "dead-path-expiry", "corrupt-state", "restart"],
    )
    def test_released_indices_are_unreachable(self, lose):
        policy = sketch_policy(hot=2)
        state = touch(policy, (1, 9), tick=0)
        group = policy._group_state((1, 9), tick=0)
        held = [state.sketch_idx, group.sketch_idx]
        del state, group
        lose(policy)
        assert (1, 9) not in policy.paths and (1, 9) not in policy.groups
        for idx in held:
            assert referrers(idx) == [held]
            # the row tuples are reachable through the held pairs only
            for rows in idx:
                assert all(
                    any(r is pair for pair in held) for r in referrers(rows)
                )

    def test_tier_pickle_size_does_not_grow_with_identifiers(self):
        policy = sketch_policy(hot=8)
        fresh = len(pickle.dumps(policy.sketch))
        for i in range(2000):
            touch(policy, (10_000 + i, 9), tick=i)
            policy._group_state((10_000 + i, 9), tick=i)
        assert policy.sketch.folds_total > 1900
        # (the fold counters grow by a few bytes of varint; cells do not)
        assert len(pickle.dumps(policy.sketch)) <= fresh + 32
        carried = [s.sketch_idx for s in policy.paths.values()] + [
            g.sketch_idx for g in policy.groups.values()
        ]
        assert len(carried) <= len(policy.paths) + len(policy.groups) <= 16


class TestCheckpoint:
    def test_restoring_its_own_snapshot_mid_run_changes_nothing(self):
        def run(roundtrip):
            engine, policy, monitor = build(**AGGREGATING)
            engine.run(200)
            if roundtrip:
                policy.restore(policy.snapshot())
            engine.run(200)
            return state_digest(policy, monitor)

        assert run(roundtrip=True) == run(roundtrip=False)

    def test_snapshot_copies_the_indices_with_the_entries(self):
        policy = sketch_policy()
        touch(policy, (1, 9), tick=0)
        policy._group_state((1, 9), tick=0)
        snap = policy.snapshot()
        other = sketch_policy()
        other.restore(snap)
        assert other.paths[(1, 9)] is not policy.paths[(1, 9)]
        assert assert_carried_equals_fresh(other) == 2


class TestMemoryBytes:
    #: ``BoundedPathState(width).memory_bytes`` at commit ``1a2bd0b``:
    #: nine ``4 x width`` float64 arrays and ``8 * width`` Bloom bytes
    AT_PARENT = {1024: 303_104, 4096: 1_212_416, 16384: 4_849_664}

    @pytest.mark.parametrize("width", sorted(AT_PARENT))
    def test_equals_the_real_buffers_and_the_parents_value(self, width):
        tier = BoundedPathState(width)
        *cells, bloom = sketch_cells(tier)
        real = sum(len(a) * a.itemsize for a in cells) + len(bloom)
        assert len(cells) == 9
        assert all(a.typecode == "d" and a.itemsize == 8 for a in cells)
        assert type(bloom) is bytearray
        assert tier.memory_bytes == real == self.AT_PARENT[width]
