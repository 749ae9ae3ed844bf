"""Queue modes, Q_max sizing, early activation, random drop."""

import random

import pytest

from repro.core.queue_manager import QueueManager, QueueMode
from repro.errors import ConfigError

from .crafted import CraftedRouter


@pytest.fixture
def qm():
    return QueueManager(buffer_size=1000, q_min_fraction=0.2,
                        rng=random.Random(1))


class TestModes:
    def test_q_min_is_20_percent(self, qm):
        assert qm.q_min == 200

    def test_mode_boundaries(self, qm):
        assert qm.mode(0) is QueueMode.UNCONGESTED
        assert qm.mode(200) is QueueMode.UNCONGESTED
        assert qm.mode(201) is QueueMode.CONGESTED
        assert qm.mode(qm.q_max) is QueueMode.CONGESTED
        assert qm.mode(qm.q_max + 1) is QueueMode.FLOODING

    def test_invalid_buffer(self):
        with pytest.raises(ConfigError):
            QueueManager(buffer_size=1)


class TestQMax:
    def test_q_max_formula(self, qm):
        # Q_max = Q_min + sum sqrt(n_i) W_i
        qm.update_q_max({(1,): (9, 10.0), (2,): (4, 5.0)})
        assert qm.q_max == 200 + int(3 * 10.0 + 2 * 5.0)

    def test_q_max_clamped_to_buffer(self, qm):
        qm.update_q_max({(1,): (10_000, 10_000.0)})
        assert qm.q_max == 1000

    def test_q_max_never_below_q_min(self, qm):
        qm.update_q_max({})
        assert qm.q_max > qm.q_min


class TestEarlyActivation:
    """Section V-A's early activation, as ``FLocPolicy.admit`` runs it:
    a packet meets its bucket once ``Q_curr > Q_min * min(1, C/lambda)``
    (``Q_min`` = 200 of a 1000-packet buffer)."""

    @pytest.fixture
    def router(self):
        return CraftedRouter(buffer=1000, q_min_fraction=0.2)

    def test_oversubscribed_path_enters_early(self, router):
        # lambda = 4C: threshold = Q_min/4 = 50
        assert router.draws_token(10, q_curr=51, bandwidth=10.0, request_rate=40.0)
        assert not router.draws_token(11, q_curr=49, bandwidth=10.0, request_rate=40.0)

    def test_conformant_path_keeps_full_q_min(self, router):
        assert not router.draws_token(10, q_curr=199, bandwidth=10.0, request_rate=5.0)
        assert router.draws_token(11, q_curr=201, bandwidth=10.0, request_rate=5.0)

    def test_zero_rate_never_early(self, router):
        # the largest uncongested queue: only the early test could bite
        q_min = router.policy.qm.q_min
        assert not router.draws_token(10, q_curr=q_min, bandwidth=10.0, request_rate=0.0)


class TestRandomDrop:
    def test_below_q_min_never_drops(self, qm):
        assert not any(qm.random_drop(q_curr=qm.q_min) for _ in range(200))

    def test_above_q_max_always_drops(self, qm):
        assert all(qm.random_drop(q_curr=qm.q_max + 1) for _ in range(200))

    def test_drop_probability_grows_with_queue(self, qm):
        qm.update_q_max({(1,): (100, 30.0)})
        low_q = qm.q_min + (qm.q_max - qm.q_min) // 4
        high_q = qm.q_min + 3 * (qm.q_max - qm.q_min) // 4
        low = sum(qm.random_drop(low_q) for _ in range(2000))
        high = sum(qm.random_drop(high_q) for _ in range(2000))
        assert high > low
