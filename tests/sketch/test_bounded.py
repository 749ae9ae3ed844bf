"""BoundedPathState: the fold/seed overflow tier behind the router."""

import ast
import json
import pickle
from pathlib import Path

import pytest

from repro.sketch import BoundedPathState


def bps(width=4096, depth=4):
    return BoundedPathState(width, depth)


class TestFoldSeed:
    def test_never_folded_path_seeds_none(self):
        assert bps().seed_path((1, 2, 3)) is None

    def test_roundtrip_uncollided(self):
        tier = bps()
        tier.fold_path((1, 2), lambda_rate=3.5, rtt_ewma=40.0, conformance=0.9)
        lam, rtt, conf = tier.seed_path((1, 2))
        assert lam == pytest.approx(3.5)
        assert rtt == pytest.approx(40.0)
        assert conf == pytest.approx(0.9)

    def test_none_conformance_not_folded(self):
        tier = bps()
        tier.fold_path((1,), lambda_rate=1.0, rtt_ewma=10.0, conformance=None)
        lam, rtt, conf = tier.seed_path((1,))
        assert lam == pytest.approx(1.0)
        assert conf is None

    def test_repeated_folds_average(self):
        tier = bps()
        tier.fold_path((1,), 2.0, 10.0, 0.5)
        tier.fold_path((1,), 4.0, 30.0, 0.7)
        lam, rtt, conf = tier.seed_path((1,))
        assert lam == pytest.approx(3.0)
        assert rtt == pytest.approx(20.0)
        assert conf == pytest.approx(0.6)

    def test_lambda_seed_clamped_nonnegative(self):
        tier = bps()
        tier.fold_path((1,), -2.0, 10.0, None)
        lam, _, _ = tier.seed_path((1,))
        assert lam == 0.0

    def test_counters(self):
        tier = bps()
        assert tier.stats()["folds"] == 0.0
        tier.fold_path((1,), 1.0, 1.0, None)
        tier.seed_path((1,))
        stats = tier.stats()
        assert stats["folds"] == 1.0
        assert stats["revivals"] == 1.0

    def test_collisions_counted_under_pressure(self):
        tier = bps(width=8, depth=1)
        for pid in range(500):
            tier.fold_path((pid,), 1.0, 1.0, None)
        assert tier.collisions_total > 0

    def test_fold_error_accumulates_under_pressure(self):
        tier = bps(width=8, depth=1)
        for pid in range(100):
            tier.fold_path((pid,), float(pid), 1.0, None)
        assert tier.fold_abs_error_total > 0.0


class TestBucketFill:
    def test_unseen_bucket_none(self):
        assert bps().seed_bucket(((1,),)) is None

    def test_fill_roundtrip_and_clamp(self):
        tier = bps()
        tier.fold_bucket("g1", 0.4)
        assert tier.seed_bucket("g1") == pytest.approx(0.4)
        tier.fold_bucket("g2", 7.0)
        assert tier.seed_bucket("g2") == 1.0
        tier.fold_bucket("g3", -1.0)
        assert tier.seed_bucket("g3") == 0.0

    def test_bucket_and_path_namespaces_distinct(self):
        # the same raw key folded as a path must not look like a seen
        # bucket, and vice versa
        tier = bps()
        tier.fold_path((9,), 1.0, 1.0, None)
        assert tier.seed_bucket((9,)) is None


class TestUnitDrops:
    def test_estimate_after_fold(self):
        tier = bps()
        tier.fold_unit_drops("unit", 5.0)
        assert tier.unit_drop_estimate("unit") >= 5.0

    def test_zero_drops_not_folded(self):
        tier = bps()
        tier.fold_unit_drops("unit", 0.0)
        assert tier.unit_drop_estimate("unit") == 0.0

    def test_decay(self):
        tier = bps()
        tier.fold_unit_drops("unit", 8.0)
        tier.decay_drops(0.5)
        assert tier.unit_drop_estimate("unit") == pytest.approx(4.0)


class TestAccounting:
    def test_memory_fixed_regardless_of_folds(self):
        tier = bps(width=256)
        before = tier.memory_bytes
        for pid in range(5_000):
            tier.fold_path((pid,), 1.0, 1.0, 0.5)
            tier.fold_bucket(pid, 0.5)
            tier.fold_unit_drops(pid, 1.0)
        assert tier.memory_bytes == before

    def test_stats_keys(self):
        stats = bps().stats()
        assert set(stats) == {
            "folds",
            "revivals",
            "collisions",
            "fold_abs_error_total",
            "fill_ratio",
            "memory_bytes",
        }

    def test_picklable(self):
        tier = bps(width=64)
        tier.fold_path((1,), 2.0, 3.0, 0.5)
        clone = pickle.loads(pickle.dumps(tier))
        lam, _, _ = clone.seed_path((1,))
        assert lam == pytest.approx(2.0)


class TestCommittedMemoryBound:
    """``BENCH_sketch.json``'s ``memory_mb`` per width is
    ``BoundedPathState.memory_bytes``, a function of the geometry alone:
    a change to how cells are stored cannot move it without the committed
    bound moving too."""

    ROOT = Path(__file__).resolve().parents[2]

    def bench_depth(self) -> int:
        """The depth ``benchmarks/sketch_bench.py``'s accuracy arm uses."""
        tree = ast.parse(
            (self.ROOT / "benchmarks" / "sketch_bench.py").read_text()
        )
        (arm,) = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "accuracy_arm"
        ]
        (depth,) = [
            kw.value.value
            for node in ast.walk(arm)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "BoundedPathState"
            for kw in node.keywords
            if kw.arg == "depth"
        ]
        return depth

    def test_memory_per_width_equals_the_committed_bound(self):
        rows = json.loads(
            (self.ROOT / "BENCH_sketch.json").read_text()
        )["accuracy_per_budget"]
        depth = self.bench_depth()
        assert rows
        for row in rows:
            tier = BoundedPathState(row["sketch_width"], depth)
            assert round(tier.memory_bytes / 2**20, 3) == row["memory_mb"]
