"""Internet-scale simulation (paper Section VII).

The paper evaluates FLoc on topologies derived from CAIDA Skitter maps,
the Composite Blocking List (CBL) and GeoLite ASN data, with 10,000
legitimate sources in 200 ASes and 100,000 bots, against a 40 Gbps target
link, using a custom discrete-time simulator (5 ms ticks, one router hop
per tick, random drop among a tick's queued packets).

None of those datasets are redistributable, so this package synthesises
equivalents with matched statistics (see DESIGN.md substitutions):

* :mod:`~repro.inet.skitter` — route-tree generation with skitter-like
  AS-path-length and branching distributions; three seeded variants stand
  in for the f-root / h-root / JPN maps.
* :mod:`~repro.inet.botlist` — CBL-like bot placement (95 % of bots in
  1.7 % of ASes) and GeoLite-like AS population model.
* :mod:`~repro.inet.scenarios` — localized (100 attack ASes), dispersed
  (300) and separated host placements, with the paper's intentional 30 %
  legitimate-source overlap into attack ASes.
* :mod:`~repro.inet.simulator` — a vectorised *fluid* version of the
  paper's tick simulator: per-tick aggregate rates instead of individual
  packets, which preserves the bandwidth-share results while scaling to
  10^5 flows in pure Python.  FLoc's aggregation logic is the exact same
  code used by the packet-level router (:mod:`repro.core.aggregation`).
"""

from .skitter import SkitterLikeMap, generate_route_tree
from .botlist import BotPlacement, place_bots, place_legitimate
from .scenarios import InternetScenario, build_internet_scenario
from .simulator import FluidSimulator, FluidResult

__all__ = [
    "SkitterLikeMap",
    "generate_route_tree",
    "BotPlacement",
    "place_bots",
    "place_legitimate",
    "InternetScenario",
    "build_internet_scenario",
    "FluidSimulator",
    "FluidResult",
]
