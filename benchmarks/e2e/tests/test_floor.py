"""The chunk-floor estimator on synthetic chunk matrices."""

import pytest

from harness import chunk_floor, chunk_lengths, percentile


def test_floor_is_the_sum_of_column_minima():
    matrix = [
        [3.0, 1.0, 5.0],
        [2.0, 4.0, 6.0],
        [9.0, 2.0, 4.0],
    ]
    assert chunk_floor(matrix) == 2.0 + 1.0 + 4.0


def test_one_slow_repetition_does_not_move_the_floor():
    clean = [[0.05] * 40 for _ in range(5)]
    slow = [0.05 * 1.6] * 40
    assert chunk_floor(clean + [slow]) == pytest.approx(chunk_floor(clean))


def test_a_slow_stretch_counts_only_where_every_repetition_has_it():
    # each repetition is slow in a different quarter of the window
    reps = []
    for r in range(4):
        row = [1.0] * 8
        row[2 * r] = row[2 * r + 1] = 3.0
        reps.append(row)
    assert chunk_floor(reps) == 8.0
    assert min(sum(row) for row in reps) == 12.0  # best whole repetition


def test_floor_needs_equal_chunk_counts():
    with pytest.raises(ValueError):
        chunk_floor([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        chunk_floor([])


def test_chunk_lengths_cover_the_ticks():
    assert chunk_lengths(800, 10) == [10] * 80
    assert chunk_lengths(65, 20) == [20, 20, 20, 5]
    assert sum(chunk_lengths(5000, 50)) == 5000


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([7.0], 98) == 7.0
    assert percentile([], 50) == 0.0
