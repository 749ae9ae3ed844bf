"""The scalable drop-record filter of Section V-B."""

import random

import pytest

from repro.core.dropfilter import DropRecordFilter


def small_filter(**kwargs):
    defaults = dict(m=4, bits=12)
    defaults.update(kwargs)
    return DropRecordFilter(**defaults)


class TestRecording:
    def test_clean_flow_zero_ratio(self):
        filt = small_filter()
        assert filt.preferential_drop_ratio("f", tick=0, epoch_ticks=100) == 0.0
        assert filt.excess_drops("f", tick=0, epoch_ticks=100) == 0.0

    def test_extra_drops_accumulate(self):
        filt = small_filter()
        for i in range(5):
            filt.record_drop("f", tick=i, epoch_ticks=100)
        assert filt.excess_drops("f", tick=5, epoch_ticks=100) >= 4.0

    def test_decay_one_per_epoch(self):
        filt = small_filter()
        filt.record_drop("f", tick=0, epoch_ticks=10)
        filt.record_drop("f", tick=0, epoch_ticks=10)
        # after 2 epochs the 2 extra drops have decayed away
        assert filt.excess_drops("f", tick=20, epoch_ticks=10) == pytest.approx(
            0.0
        )

    def test_legitimate_rate_drop_pattern_stays_clean(self):
        # one drop per epoch is the legitimate pattern: d hovers near 1
        filt = small_filter()
        for epoch in range(20):
            filt.record_drop("f", tick=epoch * 10, epoch_ticks=10)
        assert filt.excess_drops("f", tick=200, epoch_ticks=10) <= 1.5
        assert filt.preferential_drop_ratio("f", 200, 10) < 0.10

    def test_aggressive_flow_high_ratio(self):
        # 8 drops per epoch: d/t_s ~ 7 -> heavy preferential dropping
        filt = small_filter()
        tick = 0
        for epoch in range(10):
            for _ in range(8):
                filt.record_drop("f", tick=tick, epoch_ticks=10)
            tick += 10
        assert filt.preferential_drop_ratio("f", tick, 10) > 0.5

    def test_blocking_threshold(self):
        filt = small_filter(k_bits=2)  # cap = 4 drops/epoch
        for _ in range(80):
            filt.record_drop("f", tick=0, epoch_ticks=100)
        assert filt.should_block("f", tick=0, epoch_ticks=100)

    def test_eq_v1_formula(self):
        filt = small_filter()
        for _ in range(4):
            filt.record_drop("f", tick=0, epoch_ticks=100)
        d = filt.excess_drops("f", tick=0, epoch_ticks=100)
        ts = 1.0 + 1.0  # t_s advanced once (d exceeded cap*ts? cap=4: no)
        ratio = filt.preferential_drop_ratio("f", 0, 100)
        assert ratio == pytest.approx(min(1.0, d / (filt._min_entry('f',0,100)[1] + d - 1)))


class TestProbabilisticUpdate:
    def test_fewer_memory_writes_same_estimate(self):
        rng = random.Random(1)
        exact = small_filter()
        prob = small_filter(probabilistic_update=True, rng=rng)
        tick = 0
        for epoch in range(50):
            for _ in range(8):
                exact.record_drop("f", tick=tick, epoch_ticks=10)
                prob.record_drop("f", tick=tick, epoch_ticks=10)
            tick += 10
        assert prob.memory_updates < exact.memory_updates
        e1 = exact.excess_ratio("f", tick, 10)
        e2 = prob.excess_ratio("f", tick, 10)
        assert e2 == pytest.approx(e1, rel=0.6)  # same order of magnitude

    def test_array_selection_reduces_writes(self):
        rng = random.Random(2)
        filt = small_filter(rng=rng)
        for i in range(100):
            filt.record_drop("f", tick=i, epoch_ticks=1000,
                             attack_domain=True, k_arrays=2)
        # k/m = 1/2 of drops written, each to 2 of 4 arrays
        assert filt.memory_updates < 100 * 4 * 0.75


class TestDimensioning:
    def test_paper_false_positive_numbers(self):
        # paper: four 2^24 arrays, 0.5M flows -> 7.4e-7
        fp = DropRecordFilter.false_positive_ratio(0.5e6, m=4, bits=24)
        assert fp == pytest.approx(7.4e-7, rel=0.1)

    def test_false_positive_monotone_in_flows(self):
        lo = DropRecordFilter.false_positive_ratio(1e5, 4, 24)
        hi = DropRecordFilter.false_positive_ratio(4e6, 4, 24)
        assert hi > lo

    def test_selection_lowers_effective_load(self):
        with_sel = DropRecordFilter.false_positive_with_selection(
            n_total=4e6, n_attack=3.5e6, k=1, m=4, bits=24
        )
        without = DropRecordFilter.false_positive_ratio(4e6, 4, 24)
        assert with_sel < without

    def test_select_k_meets_threshold(self):
        k = DropRecordFilter.select_k(
            n_total=4e6, n_attack=3.5e6, n_threshold=1.5e6, m=4
        )
        assert 4e6 - 3.5e6 + 3.5e6 * k / 4 <= 1.5e6

    def test_memory_footprint_scales(self):
        small = small_filter(bits=10)
        big = small_filter(bits=12)
        assert big.memory_bytes == 4 * small.memory_bytes
        # the dimensioning is stated without building the arrays
        assert small.memory_bytes == DropRecordFilter.payload_bytes(
            small.m, 10
        )
        assert DropRecordFilter.payload_bytes(4, 24) == 4 * 2**24 * 6

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DropRecordFilter(m=0)
        with pytest.raises(ValueError):
            DropRecordFilter(bits=0)
