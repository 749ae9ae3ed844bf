"""Unit conversions: ticks/seconds and packets/Mbps round trips."""

import pytest

from repro.errors import ConfigError
from repro.units import DEFAULT_SCALE, INTERNET_SCALE, UnitScale


class TestTimeConversion:
    def test_seconds_to_ticks_default_scale(self):
        assert DEFAULT_SCALE.seconds_to_ticks(1.0) == 100

    def test_seconds_to_ticks_rounds(self):
        assert DEFAULT_SCALE.seconds_to_ticks(0.014) == 1
        assert DEFAULT_SCALE.seconds_to_ticks(0.016) == 2

    def test_seconds_to_ticks_minimum_one(self):
        assert DEFAULT_SCALE.seconds_to_ticks(0.0001) == 1

    def test_ticks_to_seconds_roundtrip(self):
        ticks = DEFAULT_SCALE.seconds_to_ticks(2.5)
        assert ticks * DEFAULT_SCALE.tick_seconds == pytest.approx(2.5)

    def test_internet_scale_uses_5ms_ticks(self):
        assert INTERNET_SCALE.seconds_to_ticks(1.0) == 200


class TestBandwidthConversion:
    def test_paper_link_500mbps(self):
        # 500 Mbps at 1500 B packets and 10 ms ticks = ~416.7 pkts/tick
        rate = DEFAULT_SCALE.mbps_to_pkts_per_tick(500.0)
        assert rate == pytest.approx(416.67, rel=1e-3)

    def test_mbps_roundtrip(self):
        rate = DEFAULT_SCALE.mbps_to_pkts_per_tick(2.0)
        assert DEFAULT_SCALE.pkts_per_tick_to_mbps(rate) == pytest.approx(2.0)

    def test_paper_oc768_at_internet_scale(self):
        # paper: 16000 packets/tick at 5 ms ticks corresponds to ~40 Gbps
        mbps = INTERNET_SCALE.pkts_per_tick_to_mbps(16000)
        assert mbps == pytest.approx(38_400, rel=1e-3)

    def test_file_size_12mb(self):
        packets = DEFAULT_SCALE.megabytes_to_packets(12.0)
        assert packets == 8000
        assert packets * DEFAULT_SCALE.packet_bytes / 1e6 == pytest.approx(12.0)


class TestValidation:
    def test_zero_tick_rejected(self):
        with pytest.raises(ConfigError):
            UnitScale(tick_seconds=0.0)

    def test_negative_packet_bytes_rejected(self):
        with pytest.raises(ConfigError):
            UnitScale(packet_bytes=-1)
