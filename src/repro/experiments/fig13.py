"""FIG-13/14/15: Internet-scale bandwidth guarantees.

Paper Section VII-C, Figs. 13-15: the bandwidth used at a flooded 40 Gbps
link by (i) legitimate flows of legitimate (bot-free) ASes, (ii)
legitimate flows of attack ASes and (iii) attack flows, under five
strategies — no defense (ND), per-flow fairness (FF), FLoc without
aggregation (NA), and FLoc with aggregation at two levels (A-200, A-100
in the paper; scaled equivalents here) — across three skitter-map
variants.

* FIG-13: localized attacks (bots in 100 ASes; 30 % of legitimate
  sources intentionally placed in attack ASes).
* FIG-14: dispersed attacks (bots in 300 ASes) — legitimate-path
  bandwidth drops (more attack identifiers share the link) while
  aggregation helps more.
* FIG-15 (the report's closing experiment): "separated" placement — no
  intentional legitimate presence in attack ASes.

The three figures run as figure jobs (``repro.runner.figures``), one
unit per (variant, strategy) cell; this module holds the size and
strategy settings they share.  Shape claims asserted by
``tests/paper/test_fig13_15_internet.py``: ND denies legitimate service
(~0 %); FF leaves legitimate flows ~20 %; FLoc lifts them to the
legitimate-path share of identifiers (~70 %+); aggregation increases
legitimate-path bandwidth and decreases attack-path bandwidth; per-flow,
legitimate flows of attack ASes beat bots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass
class InternetRunSettings:
    """Size/duration knobs for internet-scale runs (see scenario docs).

    The defaults reduce the paper's Section VII size: sources and bots by
    5, the target link by 16, so the legitimate demand ratio and the
    per-flow fair share differ from the full size's.  At the full size
    (2,000 ASes, 10 k legitimate sources, 100 k bots, 16,000 pkt/tick)
    FLoc's legitimate share falls below the paper's majority claim;
    EXPERIMENTS.md, "Known deviations", has the numbers.
    """

    n_as: int = 500
    n_legit_sources: int = 2_000
    n_legit_ases: int = 100
    n_bots: int = 20_000
    target_capacity: float = 1_000.0
    ticks: int = 400
    warmup: int = 200
    seed: int = 7
    #: (label, strategy, s_max) triples; s_max values are the scaled
    #: equivalents of the paper's A-200 / A-100
    strategies: Tuple[Tuple[str, str, Optional[int]], ...] = (
        ("ND", "nd", None),
        ("FF", "ff", None),
        ("NA", "floc", None),
        ("A-hi", "floc", 80),
        ("A-lo", "floc", 40),
    )
