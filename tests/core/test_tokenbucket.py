"""Per-path token buckets: parameters, refills, burst tolerance."""

import pytest

from repro.core.tokenbucket import PathTokenBucket
from repro.errors import ConfigError
from repro.tcp import model

from .crafted import CraftedRouter


class TestParameters:
    def test_period_matches_model(self):
        bucket = PathTokenBucket(bandwidth=30.0, rtt=12.0, n_flows=6)
        expected = model.token_period(30.0, 12.0, 6)
        assert bucket.period == max(1, round(expected))

    def test_average_rate_preserved_after_period_clamp(self):
        # tiny period -> clamped to 1 tick, but size scales to keep C
        bucket = PathTokenBucket(bandwidth=2.0, rtt=2.0, n_flows=50)
        assert bucket.period == 1
        assert bucket.base_size == pytest.approx(2.0)

    def test_increased_size_ratio(self):
        bucket = PathTokenBucket(bandwidth=30.0, rtt=12.0, n_flows=9)
        assert bucket.increased_size / bucket.base_size == pytest.approx(
            1.0 + 2.0 / 9.0
        )

    def test_reference_mtd(self):
        bucket = PathTokenBucket(bandwidth=30.0, rtt=12.0, n_flows=6)
        assert bucket.reference_mtd == 6 * bucket.period

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            PathTokenBucket(bandwidth=0.0, rtt=10.0, n_flows=1)

    def test_set_params_updates_everything(self):
        bucket = PathTokenBucket(bandwidth=10.0, rtt=10.0, n_flows=2)
        old_period = bucket.period
        bucket.set_params(bandwidth=10.0, rtt=10.0, n_flows=8)
        assert bucket.period < old_period  # T ~ 1/n^2


class TestRuntime:
    def test_requests_bounded_by_size_within_period(self):
        bucket = PathTokenBucket(bandwidth=10.0, rtt=10.0, n_flows=4, now=0)
        granted = sum(1 for _ in range(10_000) if bucket.request())
        assert granted == int(bucket.size)

    def test_unused_tokens_discarded_at_refill(self):
        bucket = PathTokenBucket(bandwidth=10.0, rtt=10.0, n_flows=4, now=0)
        # consume nothing; after a refill the tokens are reset, not stacked
        bucket.on_tick(bucket.period)
        assert bucket.tokens == pytest.approx(bucket.size)

    def test_burst_within_period_allowed(self):
        bucket = PathTokenBucket(bandwidth=5.0, rtt=12.0, n_flows=2, now=0)
        size = int(bucket.size)
        assert size > 5  # bursty demand above the per-tick rate fits
        assert all(bucket.request() for _ in range(size))

    def test_flooding_mode_uses_base_size(self):
        bucket = PathTokenBucket(bandwidth=10.0, rtt=10.0, n_flows=4, now=0)
        bucket.use_increased = False
        bucket.on_tick(bucket.period)  # refill at the new size
        granted = sum(1 for _ in range(10_000) if bucket.request())
        assert granted == int(bucket.base_size)

    def test_refill_happens_at_period_boundary(self):
        bucket = PathTokenBucket(bandwidth=10.0, rtt=10.0, n_flows=4, now=0)
        while bucket.request():
            pass
        bucket.on_tick(bucket.period - 1) if bucket.period > 1 else None
        if bucket.period > 1:
            assert not bucket.request()
        bucket.on_tick(bucket.period)
        assert bucket.request()

    def test_drop_counters_rotate_per_period(self):
        # FLocPolicy.on_drop charges each drop to the group's bucket
        router = CraftedRouter()
        bucket = router.group.bucket
        for tick in (2, 3):
            pkt = router.packet(tick)
            assert router.policy.admit(pkt, tick)
            router.policy.on_drop(pkt, tick)  # a tail drop
        assert bucket.drops_this_period == 2
        bucket.on_tick(bucket.period)
        assert bucket.drops_this_period == 0
        assert bucket.last_period_drops == 2

    def test_long_run_rate_equals_bandwidth(self):
        bucket = PathTokenBucket(bandwidth=3.0, rtt=20.0, n_flows=3, now=0)
        bucket.use_increased = False
        granted = 0
        for tick in range(1, 1201):
            bucket.on_tick(tick)
            while bucket.request():
                granted += 1
        assert granted / 1200.0 == pytest.approx(3.0, rel=0.1)
