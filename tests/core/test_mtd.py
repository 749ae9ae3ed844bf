"""MTD measurement, classification rules, Eq. (IV.5) service probability."""

import pytest

from repro.core.mtd import INFINITE_MTD, FlowDropTracker, MtdClassifier

from .crafted import CraftedRouter


class TestTracker:
    def test_no_drops_infinite_mtd(self):
        tracker = FlowDropTracker()
        assert tracker.mtd("f", tick=100, window=50) == INFINITE_MTD

    def test_mtd_is_window_over_drops(self):
        tracker = FlowDropTracker()
        for t in (10, 20, 30, 40):
            tracker.record_drop("f", t)
        assert tracker.mtd("f", tick=40, window=40) == pytest.approx(10.0)

    def test_window_excludes_old_drops(self):
        tracker = FlowDropTracker()
        tracker.record_drop("f", 1)
        tracker.record_drop("f", 95)
        assert tracker.drops_in_window("f", tick=100, window=10) == 1

    def test_horizon_trims_records(self):
        tracker = FlowDropTracker(horizon=50)
        tracker.record_drop("f", 0)
        assert tracker.drops_in_window("f", tick=100, window=1000) == 0

    def test_keys_independent(self):
        tracker = FlowDropTracker()
        tracker.record_drop("a", 10)
        assert tracker.drops_in_window("b", tick=20, window=100) == 0

    def test_forget_stale_releases_memory(self):
        tracker = FlowDropTracker(horizon=50)
        tracker.record_drop("f", 0)
        tracker.record_drop("g", 100)
        tracker.forget_stale(tick=100)
        assert tracker.tracked_units() == 1

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            FlowDropTracker(horizon=0)


class TestClassifier:
    @pytest.fixture
    def classifier(self):
        return MtdClassifier(attack_mtd_fraction=0.5, block_mtd_fraction=1 / 64)

    def test_service_probability_eq_iv5(self):
        # min(1, MTD/ref), as FLocPolicy.admit draws it for an identified
        # attack unit: proportional penalty below the reference
        router = CraftedRouter()
        mtd = router.mtd_window / 4  # four drops in the window
        assert router.service_probability(100, 4, 4 * mtd) == pytest.approx(0.25)
        router = CraftedRouter()
        assert router.service_probability(100, 4, mtd / 2) == 1.0
        router = CraftedRouter()
        assert router.service_probability(100, 0, 20.0) == 1.0  # INFINITE_MTD

    def test_attack_flow_threshold(self, classifier):
        assert classifier.is_attack_flow(9.0, 20.0)  # < 0.5 * ref
        assert not classifier.is_attack_flow(11.0, 20.0)
        assert not classifier.is_attack_flow(INFINITE_MTD, 20.0)

    def test_blocking_threshold(self, classifier):
        assert classifier.should_block(0.1, 20.0)
        assert not classifier.should_block(1.0, 20.0)

    def test_misidentified_flow_recovers(self):
        # as a source backs off, MTD grows and service probability -> 1
        window = CraftedRouter().mtd_window
        probs = [
            CraftedRouter().service_probability(100, drops, window / 2)
            for drops in (20, 8, 4, 2, 1)
        ]
        assert probs == sorted(probs)
        assert probs[-1] == 1.0
