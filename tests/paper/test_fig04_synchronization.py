"""FIG-4: TCP window synchronisation and token consumption."""

from repro.experiments.fig04 import run_fig04


def test_fig04_synchronization():
    result = run_fig04(n_flows=30, bandwidth=15.0, rtt=12.0)

    # paper shapes:
    # unsynchronised flows consume nearly all tokens of the base bucket
    assert result.utilization_unsync > 0.97
    # fully synchronised flows consume ~3/4 of the peak-sized bucket
    assert abs(result.utilization_sync - 0.75) < 0.08
    # partially synchronised flows sit in between, near full consumption
    assert result.utilization_partial > result.utilization_sync
    # the aggregate request of synchronised flows swings 2:1 peak/trough
    assert max(result.series_sync) / min(result.series_sync) > 1.8
    # unsynchronised aggregate is nearly flat
    assert max(result.series_unsync) / min(result.series_unsync) < 1.1
