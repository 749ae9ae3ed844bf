"""Traffic generation: attack sources, trace synthesis, and scenarios.

Attack models used in the paper's evaluation (Section VI):

* :class:`~repro.traffic.cbr.CbrSource` — constant-bit-rate flooding bots.
* :class:`~repro.traffic.shrew.ShrewSource` — low-duty-cycle on/off (Shrew)
  attackers, optionally synchronised across bots.
* :class:`~repro.traffic.covert.CovertSource` — one bot holding many
  concurrent low-rate, legitimate-looking flows to distinct destinations.
* :class:`~repro.traffic.adaptive.AdaptiveCbrSource` /
  :class:`~repro.traffic.adaptive.AdaptiveShrewSource` /
  :class:`~repro.traffic.adaptive.FluidRateRandomizer` — adversaries that
  re-phase, re-randomize rates, or churn path identifiers once throttled
  (the Section IV-B strategy-independence stress, used by
  :mod:`repro.chaos`).

The "high-population TCP attack" is simply many
:class:`~repro.tcp.source.TcpSource` instances and needs no special class.

:mod:`repro.traffic.scenarios` builds the Section VI tree topology with all
of the above attached.
"""

from ..net.source import TrafficSource
from .cbr import CbrSource
from .shrew import ShrewSource
from .covert import CovertSource
from .adaptive import (
    AdaptiveCbrSource,
    AdaptiveShrewSource,
    FluidRateRandomizer,
)
from .churn import PathChurnFloodSource
from .trace import PacketSizeDistribution
from .scenarios import TreeScenario, build_tree_scenario

__all__ = [
    "TrafficSource",
    "CbrSource",
    "ShrewSource",
    "CovertSource",
    "AdaptiveCbrSource",
    "AdaptiveShrewSource",
    "FluidRateRandomizer",
    "PathChurnFloodSource",
    "PacketSizeDistribution",
    "TreeScenario",
    "build_tree_scenario",
]
