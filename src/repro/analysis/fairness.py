"""Fairness metrics for per-flow bandwidth distributions."""

from __future__ import annotations

from typing import Sequence


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 means perfectly equal allocation; ``1/n`` means one flow holds
    everything.  Returns 1.0 for empty or all-zero inputs (no contention
    to be unfair about).

    >>> jain_index([1.0, 1.0, 1.0, 1.0])
    1.0
    >>> jain_index([4.0, 0.0, 0.0, 0.0])
    0.25
    """
    values = list(values)
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares <= 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)
