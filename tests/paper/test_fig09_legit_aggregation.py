"""FIG-9: legitimate-path aggregation evens per-flow bandwidth."""

from repro.experiments.common import mean
from repro.experiments.fig09 import run_fig09

from . import SETTINGS


def test_fig09_legit_aggregation():
    result = run_fig09(SETTINGS)

    # paper shape 1: with per-path allocation, flows of under-populated
    # domains do strictly better than flows of populated domains
    assert result.without_agg.small_big_ratio > 1.05
    # paper shape 2: aggregation makes allocation flow-proportional — the
    # population advantage shrinks decisively toward parity
    assert result.with_agg.small_big_ratio < result.without_agg.small_big_ratio
    assert abs(result.with_agg.small_big_ratio - 1.0) < abs(
        result.without_agg.small_big_ratio - 1.0
    ) + 0.02
    # aggregation must not starve anyone
    assert mean(result.with_agg.all_rates) > 0.6 * mean(
        result.without_agg.all_rates
    )
    # legitimate flows of (aggregated) attack paths keep link access
    assert mean(result.with_agg.attack_path_rates) > 0.0
