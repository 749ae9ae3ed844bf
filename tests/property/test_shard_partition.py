"""Property-based tests on the shard partitioner.

``repro.inet.shard`` is kept only for ``benchmarks/e2e``; while it is
there, its partitioner stays a *total, stable partition* of the
path-identifier space: every path id lands in exactly one shard, the
assignment never depends on enumeration order or on which process
computes it, and it is a pure function of ``(path_id, n_shards, seed)``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.inet.shard import shard_of_path

path_ids = st.lists(
    st.integers(min_value=0, max_value=100_000), min_size=1, max_size=12
).map(tuple)


class TestShardOfPathProperties:
    @given(
        pid=path_ids,
        n_shards=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=200)
    def test_total_and_in_range(self, pid, n_shards, seed):
        shard = shard_of_path(pid, n_shards, seed)
        assert isinstance(shard, int)
        assert 0 <= shard < n_shards

    @given(
        pid=path_ids,
        n_shards=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100)
    def test_deterministic_per_seed_and_width(self, pid, n_shards, seed):
        assert shard_of_path(pid, n_shards, seed) == shard_of_path(
            pid, n_shards, seed
        )
        assert shard_of_path(list(pid), n_shards, seed) == shard_of_path(
            pid, n_shards, seed
        )

    @given(
        pids=st.lists(path_ids, min_size=2, max_size=40, unique=True),
        n_shards=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100)
    def test_iteration_order_independent(self, pids, n_shards, seed):
        forward = {pid: shard_of_path(pid, n_shards, seed) for pid in pids}
        backward = {
            pid: shard_of_path(pid, n_shards, seed)
            for pid in reversed(pids)
        }
        assert forward == backward

    @given(
        pids=st.lists(path_ids, min_size=1, max_size=40, unique=True),
        n_shards=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100)
    def test_exactly_one_shard_claims_each_pid(self, pids, n_shards, seed):
        for pid in pids:
            claims = [
                shard
                for shard in range(n_shards)
                if shard_of_path(pid, n_shards, seed) == shard
            ]
            assert len(claims) == 1

    @given(
        pid=path_ids,
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50)
    def test_single_shard_owns_everything(self, pid, seed):
        assert shard_of_path(pid, 1, seed) == 0
