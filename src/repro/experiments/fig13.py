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

Shape claims asserted by the benches: ND denies legitimate service
(~0 %); FF leaves legitimate flows ~20 %; FLoc lifts them to the
legitimate-path share of identifiers (~70 %+); aggregation increases
legitimate-path bandwidth and decreases attack-path bandwidth; per-flow,
legitimate flows of attack ASes beat bots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..inet.scenarios import build_internet_scenario
from ..inet.simulator import FluidResult, FluidSimulator
from ..sanitize import install_sanitizer


@dataclass
class InternetRunSettings:
    """Size/duration knobs for internet-scale runs (see scenario docs).

    The defaults are a 5x reduction of the paper's Section VII size with
    its ratios.  At the full size (2,000 ASes, 10 k legitimate sources,
    100 k bots, 16,000 pkt/tick) FLoc's legitimate share falls below the
    paper's majority claim; EXPERIMENTS.md, "Known deviations", has the
    numbers.
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


@dataclass
class Fig13Result:
    """(variant, strategy label) -> fluid result."""

    placement: str
    results: Dict[Tuple[str, str], FluidResult] = field(default_factory=dict)

    def rows(self) -> List[Tuple[str, str, float, float, float, float]]:
        """Rows (variant, strategy, legit-legit, legit-attack, attack, util)."""
        return [
            (
                variant,
                label,
                r.shares["legit_in_legit"],
                r.shares["legit_in_attack"],
                r.shares["attack"],
                r.utilization,
            )
            for (variant, label), r in sorted(self.results.items())
        ]


def run_fig13(
    placement: str = "localized",
    variants: Tuple[str, ...] = ("f-root", "h-root", "jpn"),
    settings: InternetRunSettings = None,
    sanitize: Optional[str] = None,
) -> Fig13Result:
    """Run the strategy sweep for one placement across map variants.

    ``placement``: "localized" (FIG-13), "dispersed" (FIG-14) or
    "separated" (FIG-15).  ``sanitize`` installs the runtime invariant
    layer on every simulator ("strict" or "record").
    """
    settings = settings or InternetRunSettings()
    out = Fig13Result(placement=placement)
    for variant in variants:
        scenario = build_internet_scenario(
            variant=variant,
            placement=placement,
            n_as=settings.n_as,
            n_legit_sources=settings.n_legit_sources,
            n_legit_ases=settings.n_legit_ases,
            n_bots=settings.n_bots,
            target_capacity=settings.target_capacity,
            seed=settings.seed,
            build_flow_links=False,
        )
        for label, strategy, s_max in settings.strategies:
            sim = FluidSimulator(
                scenario, strategy=strategy, s_max=s_max, seed=settings.seed
            )
            install_sanitizer(sim, sanitize)
            out.results[(variant, label)] = sim.run(
                ticks=settings.ticks, warmup=settings.warmup
            )
    return out


def run_fig14(**kwargs) -> Fig13Result:
    """FIG-14: the dispersed-attack variant of the sweep."""
    return run_fig13(placement="dispersed", **kwargs)


def run_fig15(**kwargs) -> Fig13Result:
    """FIG-15: the separated (no forced overlap) variant of the sweep."""
    return run_fig13(placement="separated", **kwargs)
