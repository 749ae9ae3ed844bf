"""Jain index and max/min fairness metrics."""

import pytest

from repro.analysis.fairness import jain_index


class TestJain:
    def test_equal_allocation_is_one(self):
        assert jain_index([2.0] * 10) == pytest.approx(1.0)

    def test_single_hog_is_one_over_n(self):
        assert jain_index([5.0, 0.0, 0.0, 0.0, 0.0]) == pytest.approx(0.2)

    def test_monotone_in_evenness(self):
        assert jain_index([1, 1, 1, 3]) > jain_index([1, 1, 1, 9])

    def test_scale_invariant(self):
        assert jain_index([1, 2, 3]) == pytest.approx(jain_index([10, 20, 30]))

    def test_empty_and_zero(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_bounds(self):
        values = [0.1, 5.0, 2.0, 0.0, 3.3]
        index = jain_index(values)
        assert 1.0 / len(values) <= index <= 1.0
