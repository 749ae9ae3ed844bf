"""FIG-7: robustness of bandwidth guarantees across attack strengths.

Paper Section VI-B, Figs. 7(a)-(c): CDFs of the bandwidth received by
flows of *legitimate paths* under CBR attacks of increasing strength, for
FLoc, Pushback and RED-PD (with the RED no-attack case as the fairness
reference).  FLoc's CDFs are nearly invariant in attack strength and
centred on the ideal fair rate (0.617 Mbps); Pushback's and RED-PD's
shift left as attacks intensify.
"""

from __future__ import annotations

from typing import List, Tuple

from ..traffic.scenarios import build_tree_scenario
from .common import FunctionalSettings, run_breakdown


def run_fig07(
    settings: FunctionalSettings, scheme: str, rate: float
) -> List[float]:
    """One cell: per-flow Mbps of legit-path flows under ``scheme``
    while the bots send CBR at ``rate`` Mbps each."""
    scenario = build_tree_scenario(
        scale_factor=settings.scale,
        attack_kind="cbr",
        attack_rate_mbps=rate,
        seed=settings.seed,
        start_spread_seconds=1.0,
    )
    return run_breakdown(scenario, scheme, settings).legit_in_legit_rates


def run_fig07_reference(
    settings: FunctionalSettings,
) -> Tuple[List[float], float]:
    """The RED no-attack reference: per-flow Mbps of legit-path flows,
    and the ideal fair per-flow rate (link capacity over all legit
    flows)."""
    scenario = build_tree_scenario(
        scale_factor=settings.scale,
        attack_kind="none",
        seed=settings.seed,
        start_spread_seconds=1.0,
    )
    run = run_breakdown(scenario, "red", settings)
    ideal = scenario.units.pkts_per_tick_to_mbps(
        scenario.capacity / max(1, len(scenario.legit_flows))
    )
    return run.legit_in_legit_rates, ideal
