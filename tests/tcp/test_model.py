"""Analytic TCP model: the paper's equations and their inverses."""

import math

import pytest

from repro.errors import ConfigError
from repro.tcp import model


class TestSingleFlow:
    def test_mean_window_is_three_quarters_peak(self):
        assert model.mean_window(8.0) == 6.0

    def test_window_std_uniform(self):
        # uniform on [W/2, W] has std (W/2)/sqrt(12)
        assert model.window_std(8.0) == pytest.approx(4.0 / math.sqrt(12.0))

    def test_bandwidth_window_roundtrip(self):
        bw = model.flow_bandwidth(peak_window=10.0, rtt=12.0)
        assert model.peak_window(bw, rtt=12.0, n_flows=1.0) == pytest.approx(10.0)

    def test_peak_window_shrinks_with_flows(self):
        w1 = model.peak_window(100.0, 10.0, 10)
        w2 = model.peak_window(100.0, 10.0, 20)
        assert w2 == pytest.approx(w1 / 2.0)

    def test_mtd_half_window_times_rtt(self):
        assert model.mtd(8.0, 10.0) == 40.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigError):
            model.mean_window(0.0)
        with pytest.raises(ConfigError):
            model.peak_window(-1.0, 10.0)


class TestTokenBucketEquations:
    def test_eq_iv1_token_period(self):
        # T = (2/3) C RTT^2 / n^2
        assert model.token_period(30.0, 12.0, 6.0) == pytest.approx(
            (2.0 / 3.0) * 30.0 * 144.0 / 36.0
        )

    def test_token_period_equals_mtd_over_n(self):
        c, rtt, n = 30.0, 12.0, 6.0
        w = model.peak_window(c, rtt, n)
        assert model.token_period(c, rtt, n) == pytest.approx(
            model.mtd(w, rtt) / n
        )

    def test_eq_iv2_bucket_is_c_times_t(self):
        c, rtt, n = 30.0, 12.0, 6.0
        assert model.bucket_size(c, rtt, n) == pytest.approx(
            c * model.token_period(c, rtt, n)
        )

    def test_eq_iv3_increase_factor(self):
        # N' = (1 + 2/(3 sqrt n)) N
        c, rtt, n = 30.0, 12.0, 9.0
        base = model.bucket_size(c, rtt, n)
        assert model.increased_bucket_size(c, rtt, n) == pytest.approx(
            base * (1.0 + 2.0 / 9.0)
        )

    def test_increase_factor_from_sigma_mu(self):
        # the (1 + eps sigma/mu) definition must match the closed form
        n, w = 16.0, 10.0
        mu = n * model.mean_window(w)
        sigma = model.window_std(w) * math.sqrt(n)
        factor = 1.0 + model.EPSILON * sigma / mu
        assert factor == pytest.approx(1.0 + 2.0 / (3.0 * math.sqrt(n)))


class TestDropRatioModel:
    def test_gamma_formula(self):
        assert model.drop_ratio(10.0) == pytest.approx(8.0 / 360.0)

    def test_drop_ratio_decreases_with_window(self):
        assert model.drop_ratio(20.0) < model.drop_ratio(10.0)

    def test_window_from_drop_ratio_inverse(self):
        for w in (2.0, 7.5, 40.0):
            gamma = model.drop_ratio(w)
            assert model.window_from_drop_ratio(gamma) == pytest.approx(w)

    def test_flows_from_drop_rate_inverse(self):
        # forward: n flows on (C, RTT) produce delta; inverse recovers n
        c, rtt, n = 100.0, 12.0, 25.0
        w = model.peak_window(c, rtt, n)
        delta = model.drop_rate(c, w)
        assert model.flows_from_drop_rate(c, rtt, delta) == pytest.approx(n)

    def test_one_drop_per_epoch_consistency(self):
        # gamma * packets-per-epoch == 1 for a single flow
        w = 12.0
        packets_per_epoch = 3.0 / 8.0 * w * (w + 2.0)
        assert model.drop_ratio(w) * packets_per_epoch == pytest.approx(1.0)
