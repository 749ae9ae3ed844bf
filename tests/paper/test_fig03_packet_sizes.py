"""FIG-3: packet-size distribution (synthetic trace)."""

from repro.experiments.fig03 import run_fig03


def test_fig03_packet_sizes():
    result = run_fig03(n_samples=100_000, seed=1)

    fr = result.mode_fractions
    # paper shape: bimodal at 40 B and 1500 B with a ~1300 B VPN mode
    assert fr[40] > 0.30
    assert fr[1500] > 0.35
    assert 0.05 < fr[1300] < 0.20
    # the CDF ends at 1.0 and is monotone
    ys = [y for _, y in result.cdf]
    assert ys == sorted(ys) and abs(ys[-1] - 1.0) < 1e-9
