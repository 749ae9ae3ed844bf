"""Property-based tests (hypothesis) on the MTD tracker edge cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mtd import INFINITE_MTD, FlowDropTracker, MtdClassifier
from tests.core.crafted import CraftedRouter

ticks = st.integers(min_value=0, max_value=100_000)
windows = st.integers(min_value=1, max_value=5_000)
bad_windows = st.integers(min_value=-1_000, max_value=0)


class TestEmptyHistory:
    @given(tick=ticks, window=windows)
    def test_untracked_key_has_infinite_mtd(self, tick, window):
        tracker = FlowDropTracker()
        assert tracker.mtd("ghost", tick, window) == INFINITE_MTD
        assert tracker.drops_in_window("ghost", tick, window) == 0

    @given(tick=ticks, window=windows)
    def test_forgotten_key_has_infinite_mtd(self, tick, window):
        tracker = FlowDropTracker()
        tracker.record_drop("f", tick)
        tracker.forget("f")
        assert tracker.mtd("f", tick, window) == INFINITE_MTD


class TestWindowValidation:
    @given(window=bad_windows)
    def test_mtd_rejects_non_positive_windows(self, window):
        tracker = FlowDropTracker()
        with pytest.raises(ValueError):
            tracker.mtd("f", 100, window)

    @given(window=bad_windows)
    def test_drops_in_window_rejects_non_positive_windows(self, window):
        tracker = FlowDropTracker()
        with pytest.raises(ValueError):
            tracker.drops_in_window("f", 100, window)

    @given(horizon=st.integers(min_value=-100, max_value=0))
    def test_tracker_rejects_non_positive_horizon(self, horizon):
        with pytest.raises(ValueError):
            FlowDropTracker(horizon=horizon)


class TestRecovery:
    @given(
        drops=st.lists(
            st.integers(min_value=0, max_value=500),
            min_size=1,
            max_size=50,
        ),
        window=st.integers(min_value=1, max_value=600),
        gap=st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=60)
    def test_mtd_is_monotone_after_drops_stop(self, drops, window, gap):
        """Once a flow stops dropping, its MTD can only rise as time
        passes — the self-healing property behind Eq. IV.5."""
        tracker = FlowDropTracker(horizon=2000)
        for t in sorted(drops):
            tracker.record_drop("f", t)
        last = max(drops)
        t1 = last + gap
        t2 = t1 + 1 + gap
        assert tracker.mtd("f", t2, window) >= tracker.mtd("f", t1, window)

    @given(
        n_drops=st.integers(min_value=1, max_value=40),
        window=st.integers(min_value=1, max_value=1000),
    )
    def test_mtd_eventually_returns_to_infinite(self, n_drops, window):
        tracker = FlowDropTracker(horizon=2000)
        for t in range(n_drops):
            tracker.record_drop("f", t)
        far = n_drops + max(window, tracker.horizon) + 1
        assert tracker.mtd("f", far, window) == INFINITE_MTD

    @given(
        n_drops=st.integers(min_value=1, max_value=100),
        window=windows,
        tick=ticks,
    )
    def test_mtd_matches_window_over_drop_count(self, n_drops, window, tick):
        tracker = FlowDropTracker(horizon=10**6)
        for _ in range(n_drops):
            tracker.record_drop("f", tick)
        expected = min(window, tracker.horizon) / n_drops
        assert tracker.mtd("f", tick, window) == pytest.approx(expected)


class _RescanTracker:
    """Brute-force reference: every query rescans the whole record."""

    def __init__(self, horizon):
        self.horizon = horizon
        self.ticks = []

    def drops_in_window(self, tick, window):
        self.ticks = [t for t in self.ticks if t >= tick - self.horizon]
        return sum(1 for t in self.ticks if t > tick - window)

    def mtd(self, tick, window):
        window = min(window, self.horizon)
        drops = self.drops_in_window(tick, window)
        return INFINITE_MTD if drops == 0 else window / drops


#: (operation, ticks the clock advances first, query look-back, window);
#: small ranges, so that records land exactly on window and horizon edges
tracker_ops = st.lists(
    st.tuples(
        st.sampled_from(["drop", "drop", "count", "mtd", "forget"]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=6),
        st.one_of(
            st.integers(min_value=1, max_value=12),
            st.integers(min_value=1, max_value=400),
        ),
    ),
    max_size=80,
)


class TestWindowCountEquivalence:
    """Counting from the newest record must equal rescanning them all."""

    @given(ops=tracker_ops, horizon=st.integers(min_value=1, max_value=60))
    @settings(max_examples=200)
    def test_matches_brute_force(self, ops, horizon):
        tracker = FlowDropTracker(horizon=horizon)
        reference = _RescanTracker(horizon)
        now = 0
        for op, advance, back, window in ops:
            now += advance
            tick = now - back  # queries may trail the newest record
            if op == "drop":
                tracker.record_drop("f", now)
                reference.ticks.append(now)
            elif op == "forget":
                tracker.forget("f")
                reference.ticks.clear()
            elif op == "count":
                assert tracker.drops_in_window(
                    "f", tick, window
                ) == reference.drops_in_window(tick, window)
            else:
                assert tracker.mtd("f", tick, window) == reference.mtd(
                    tick, window
                )
            assert tracker.drop_count("f") == len(reference.ticks)

    @given(tick=st.integers(min_value=100, max_value=10_000),
           window=st.integers(min_value=1, max_value=100))
    def test_window_is_open_below_and_closed_above(self, tick, window):
        tracker = FlowDropTracker(horizon=1000)
        tracker.record_drop("f", tick - window)  # excluded
        assert tracker.drops_in_window("f", tick, window) == 0
        tracker.record_drop("f", tick - window + 1)  # oldest tick inside
        tracker.record_drop("f", tick)  # included
        assert tracker.drops_in_window("f", tick, window) == 2

    @given(window=st.integers(min_value=51, max_value=5_000))
    def test_window_beyond_horizon_counts_the_horizon(self, window):
        tracker = FlowDropTracker(horizon=50)
        for t in (100, 149, 150, 200):
            tracker.record_drop("f", t)
        # the horizon keeps [150, 200]; MTD clamps its window to (150, 200]
        assert tracker.drops_in_window("f", 200, window) == 2
        assert tracker.drop_count("f") == 2
        assert tracker.mtd("f", 200, window) == 50.0


class TestRecordOrder:
    @given(
        first=st.integers(min_value=1, max_value=10_000),
        back=st.integers(min_value=1, max_value=10_000),
    )
    def test_older_tick_is_refused(self, first, back):
        tracker = FlowDropTracker()
        tracker.record_drop("f", first)
        tracker.record_drop("f", first)  # equal ticks are in order
        with pytest.raises(ValueError):
            tracker.record_drop("f", first - back)
        tracker.record_drop("g", first - back)  # the order is per unit
        assert tracker.drop_count("f") == 2


class TestClassifierEdges:
    @given(ref=st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
    def test_infinite_mtd_is_always_serviced_and_never_flagged(self, ref):
        clf = MtdClassifier()
        # a unit with no drops in its window has INFINITE_MTD
        assert CraftedRouter().service_probability(100, 0, ref) == 1.0
        assert not clf.is_attack_flow(INFINITE_MTD, ref)
        assert not clf.should_block(INFINITE_MTD, ref)

    @given(
        drops=st.integers(min_value=0, max_value=1_000),
        ref=st.floats(min_value=1e-9, max_value=1e9, allow_nan=False),
    )
    def test_service_probability_is_a_probability(self, drops, ref):
        p = CraftedRouter().service_probability(100, drops, ref)
        assert 0.0 <= p <= 1.0
