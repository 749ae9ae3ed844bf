"""The partitioner and file all-reduce of ``repro.inet.shard`` (kept for
``benchmarks/e2e`` only): ownership, barrier deadline, GC, republish."""

import os
import pickle
import threading

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.inet.scenarios import build_internet_scenario
from repro.inet.shard import (
    BarrierExchange,
    ShardBarrierTimeout,
    ShardSpec,
    partition_scenario,
)

SEED = 7


def _scenario():
    return build_internet_scenario(
        n_as=120, n_legit_sources=240, n_legit_ases=30, n_bots=2_000,
        target_capacity=150.0, seed=SEED,
    )


class TestPartition:
    def test_every_as_owned_exactly_once(self):
        scenario = _scenario()
        owners = partition_scenario(scenario, 3, SEED)
        assert owners.shape[0] == scenario.topology.n_as
        masks = [owners == shard for shard in range(3)]
        assert np.all(sum(mask.astype(int) for mask in masks) == 1)

    def test_deterministic_per_seed(self):
        scenario = _scenario()
        a = partition_scenario(scenario, 4, 11)
        b = partition_scenario(scenario, 4, 11)
        c = partition_scenario(scenario, 4, 12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestExchange:
    def _spec(self, shard=0, n_shards=2, n_as=8):
        owners = np.arange(n_as, dtype=np.int64) % n_shards
        return ShardSpec(shard=shard, n_shards=n_shards, shard_of_as=owners)

    def test_straggler_deadline_raises_retryable(self, tmp_path):
        ticking = iter(float(i) for i in range(1000))
        exchange = BarrierExchange(
            str(tmp_path), self._spec(), timeout_seconds=5.0,
            clock=lambda: next(ticking), sleep=_no_sleep,
        )
        with pytest.raises(ShardBarrierTimeout):
            exchange.allreduce(0, "load", {"own": np.zeros(8)}, {})

    def test_poll_hook_runs_while_waiting_and_never_pickles(self, tmp_path):
        calls = []
        ticking = iter(float(i) for i in range(1000))
        exchange = BarrierExchange(
            str(tmp_path), self._spec(), timeout_seconds=3.0,
            clock=lambda: next(ticking), sleep=_no_sleep,
        )
        exchange.poll_hook = _record_hook(calls)
        with pytest.raises(ShardBarrierTimeout):
            exchange.allreduce(0, "load", {"own": np.zeros(8)}, {})
        assert calls
        # pickling drops the hook (a live object of the driver);
        # default clock/sleep pickle by reference
        plain = BarrierExchange(str(tmp_path), self._spec())
        plain.poll_hook = _record_hook(calls)
        revived = pickle.loads(pickle.dumps(plain))
        assert revived.poll_hook is None

    def test_assignment_reconstruction_is_exact(self, tmp_path):
        n_as = 8
        owners = np.arange(n_as, dtype=np.int64) % 2
        rng = np.random.default_rng(3)
        partials = [rng.random(n_as), rng.random(n_as)]
        fulls = []

        def drive(shard):
            spec = ShardSpec(shard=shard, n_shards=2, shard_of_as=owners)
            exchange = BarrierExchange(str(tmp_path), spec, timeout_seconds=30.0)
            vectors, counts = exchange.allreduce(
                0, "load", {"own": partials[shard]}, {"n": shard + 1}
            )
            fulls.append((vectors["own"], counts["n"]))

        threads = [
            threading.Thread(target=drive, args=(shard,)) for shard in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert len(fulls) == 2
        expected = np.where(owners == 0, partials[0], partials[1])
        for full, count in fulls:
            assert np.array_equal(full, expected)
            assert count == 3

    def test_idempotent_republish_keeps_first_bytes(self, tmp_path):
        spec = ShardSpec(
            shard=0, n_shards=1, shard_of_as=np.zeros(4, dtype=np.int64)
        )
        exchange = BarrierExchange(str(tmp_path), spec)
        first = np.arange(4, dtype=np.float64)
        exchange.allreduce(0, "load", {"own": first}, {})
        # a replay re-publishes; existing bytes must win
        path = exchange._path(0, "load", 0)
        before = open(path, "rb").read()
        exchange.allreduce(0, "load", {"own": first.copy()}, {})
        assert open(path, "rb").read() == before

    def test_gc_keeps_two_epochs(self, tmp_path):
        spec = ShardSpec(
            shard=0, n_shards=1, shard_of_as=np.zeros(4, dtype=np.int64)
        )
        exchange = BarrierExchange(str(tmp_path), spec, epoch_ticks=10)
        vec = np.zeros(4)
        for tick in range(0, 51):
            exchange.allreduce(tick, "load", {"own": vec}, {})
        kept = sorted(
            int(name[1:9]) for name in os.listdir(str(tmp_path))
            if name.endswith(".pkl")
        )
        # GC at tick 50 drops everything below 50 - 2*10 = 30
        assert min(kept) >= 30
        assert max(kept) == 50

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigError):
            ShardSpec(shard=2, n_shards=2, shard_of_as=np.zeros(4, dtype=np.int64))
        with pytest.raises(ConfigError):
            ShardSpec(
                shard=0, n_shards=2,
                shard_of_as=np.full(4, 7, dtype=np.int64),
            )


def _no_sleep(seconds):
    del seconds


def _record_hook(calls):
    def hook():
        calls.append("poll")
    return hook
