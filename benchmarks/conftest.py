"""Shared configuration for the figure-reproduction benchmarks.

Each benchmark regenerates one paper figure: it runs the experiment once
(``benchmark.pedantic(rounds=1)``), prints the figure's rows (run pytest
with ``-s`` to see them), and asserts the paper's *shape* claims — who
wins, by roughly what factor, where crossovers fall.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable
(default 0.08 = flow counts and link capacity at 8 % of the paper's,
preserving per-flow fair shares).  Set it to 1.0 for full paper scale
(much slower).  ``REPRO_BENCH_SECONDS`` scales the measurement window.

These are the shape record, not a timing gate: performance changes are
judged by ``benchmarks/e2e/run.py --compare``.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.common import FunctionalSettings


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.08"))


def bench_seconds() -> float:
    return float(os.environ.get("REPRO_BENCH_SECONDS", "8.0"))


@pytest.fixture
def settings() -> FunctionalSettings:
    return FunctionalSettings(
        scale=bench_scale(),
        warmup_seconds=4.0,
        measure_seconds=bench_seconds(),
        seed=1,
    )


def emit(text: str) -> None:
    """Print a figure's rows beneath the benchmark output."""
    print()
    print(text)
