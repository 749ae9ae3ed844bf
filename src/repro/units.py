"""Unit conversions between simulation ticks/packets and physical units.

The simulation engine measures time in integer *ticks* and traffic volume in
*packets* (one packet is one full-sized 1500-byte TCP segment unless stated
otherwise, following the paper's Section III-D argument that full-sized
packets dominate congestion behaviour).  The paper's own Internet-scale
simulator uses the same convention: "individual packets advance a single
router-hop in a time tick" with a 5 ms tick (Section VII-B).

:class:`UnitScale` converts between the tick/packet world and
seconds/megabits-per-second so that scenario definitions can be written with
the paper's numbers (e.g. a 500 Mbps target link, 2.0 Mbps CBR bots).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

#: Size of a full-sized data packet, in bytes (Ethernet MTU payload).
FULL_PACKET_BYTES = 1500

#: Size of a TCP SYN/ACK control packet, in bytes.
CONTROL_PACKET_BYTES = 40

#: Bits per byte, spelled out for readability of conversions.
BITS_PER_BYTE = 8


@dataclass(frozen=True)
class UnitScale:
    """Conversion factors for one simulation.

    Parameters
    ----------
    tick_seconds:
        Duration of one simulation tick, in seconds.  The paper's functional
        evaluation operates at RTT scales of ~100 ms, so the default 10 ms
        tick resolves window dynamics; the Internet-scale simulator uses
        5 ms (Section VII-B).
    packet_bytes:
        Bytes represented by one simulated packet.
    """

    tick_seconds: float = 0.010
    packet_bytes: int = FULL_PACKET_BYTES

    def __post_init__(self) -> None:
        if self.tick_seconds <= 0:
            raise ConfigError(f"tick_seconds must be positive, got {self.tick_seconds}")
        if self.packet_bytes <= 0:
            raise ConfigError(f"packet_bytes must be positive, got {self.packet_bytes}")

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def seconds_to_ticks(self, seconds: float) -> int:
        """Convert a duration in seconds to a whole number of ticks (>= 1)."""
        return max(1, round(seconds / self.tick_seconds))

    # ------------------------------------------------------------------
    # bandwidth
    # ------------------------------------------------------------------
    def mbps_to_pkts_per_tick(self, mbps: float) -> float:
        """Convert a bandwidth in Mbps to packets per tick."""
        bytes_per_second = mbps * 1e6 / BITS_PER_BYTE
        packets_per_second = bytes_per_second / self.packet_bytes
        return packets_per_second * self.tick_seconds

    def pkts_per_tick_to_mbps(self, rate: float) -> float:
        """Convert a rate in packets per tick to Mbps."""
        packets_per_second = rate / self.tick_seconds
        return packets_per_second * self.packet_bytes * BITS_PER_BYTE / 1e6

    def megabytes_to_packets(self, megabytes: float) -> int:
        """Convert a payload size in megabytes to a whole packet count."""
        return max(1, round(megabytes * 1e6 / self.packet_bytes))


#: Default scale used by the functional (Section VI style) scenarios.
DEFAULT_SCALE = UnitScale()

#: Scale matching the paper's Internet-scale simulator (5 ms ticks).
INTERNET_SCALE = UnitScale(tick_seconds=0.005)


#: Identifier suffix -> dimension class, longest suffix wins.  This is the
#: single source of truth for the repo's units-in-the-name convention: the
#: FLC004 static rule (``tests/check/flocheck/rules/units.py``) checks
#: arithmetic against it, and the telemetry registry
#: (:mod:`repro.telemetry`) validates metric names against it at runtime.
SUFFIX_DIMENSIONS = (
    ("pkts_per_tick", "rate[pkt/tick]"),
    ("per_tick", "rate[pkt/tick]"),
    ("pkts_per_second", "rate[pkt/s]"),
    ("mbps", "rate[Mbit/s]"),
    ("bps", "rate[bit/s]"),
    ("megabytes", "volume[MB]"),
    ("bytes", "volume[B]"),
    ("bits", "volume[bit]"),
    ("packets", "volume[pkt]"),
    ("pkts", "volume[pkt]"),
    ("seconds", "time[s]"),
    ("secs", "time[s]"),
    ("ticks", "time[tick]"),
)


def dimension_of(name: "str | None") -> "str | None":
    """Dimension class of an identifier, from its unit suffix."""
    if name is None:
        return None
    lowered = name.lower()
    for suffix, dim in SUFFIX_DIMENSIONS:
        if lowered == suffix or lowered.endswith("_" + suffix):
            return dim
    return None
