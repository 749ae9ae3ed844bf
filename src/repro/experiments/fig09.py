"""FIG-9: legitimate-path aggregation.

Paper Section VI-C, Fig. 9: three of the 21 uncontaminated domains host
only 15 legitimate sources while the rest host 30.  With strictly
per-path allocation, flows of the under-populated (small) domains receive
up to twice the bandwidth of flows in populated (big) domains;
legitimate-path aggregation merges the paths so allocation becomes
proportional to flow counts and the per-flow distribution evens out.

In this reproduction the *size* of the without-aggregation gap depends on
how much time the router spends in flooding mode (only there do the
per-path buckets bind strictly; the congested-mode random drop is
deliberately neutral, Section V-A), so the reproduction target is the
*direction*: small-domain flows beat big-domain flows without
aggregation, and aggregation closes that gap.  Legitimate flows of
aggregated *attack* paths keep link access but at reduced rates — the
expected differential-guarantee outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.config import FLocConfig
from ..traffic.scenarios import build_tree_scenario
from .common import FunctionalSettings, mean, run_breakdown


@dataclass
class Fig09Variant:
    """Per-flow bandwidth samples of one run, split by domain size."""

    all_rates: List[float]
    small_domain_rates: List[float]
    big_domain_rates: List[float]
    attack_path_rates: List[float]

    @property
    def small_big_ratio(self) -> float:
        """Mean small-domain flow rate over mean big-domain flow rate."""
        big = mean(self.big_domain_rates)
        return mean(self.small_domain_rates) / big if big > 0 else float("inf")


@dataclass
class Fig09Result:
    """With/without legitimate-path aggregation."""

    with_agg: Fig09Variant
    without_agg: Fig09Variant


def run_fig09(
    settings: FunctionalSettings = FunctionalSettings(),
) -> Fig09Result:
    """Run the uneven-population scenario with aggregation on and off.

    Every third uncontaminated leaf hosts 15 legitimate sources, and FLoc
    runs with ``s_max = 25``.  The target-link buffer shrinks to 30 % so
    the flood keeps the router in flooding mode part of the time, where
    the per-path buckets bind (see module docstring).
    """
    probe = build_tree_scenario(scale_factor=settings.scale, attack_kind="cbr")
    attack_leaf_pids = set(probe.attack_path_ids)
    legit_leaf_indices = [
        i for i, pid in enumerate(probe.path_ids) if pid not in attack_leaf_pids
    ]
    overrides: Dict[int, int] = {
        i: 15 for i in legit_leaf_indices[::3]
    }
    small_pids = {probe.path_ids[i] for i in overrides}

    variants = {}
    for label, legit_agg in (("with", True), ("without", False)):
        scenario = build_tree_scenario(
            scale_factor=settings.scale,
            attack_kind="cbr",
            attack_rate_mbps=2.0,
            seed=settings.seed,
            start_spread_seconds=1.0,
            legit_count_overrides=overrides,
        )
        link = scenario.topology.link(*scenario.target)
        link.buffer = max(30, int(link.buffer * 0.3))
        cfg = FLocConfig(s_max=25, legitimate_aggregation=legit_agg)
        run = run_breakdown(scenario, "floc", settings, floc_config=cfg)
        legit_leaf_flows = [
            f
            for f in scenario.legit_flows
            if f.path_id not in attack_leaf_pids
        ]
        small, big = [], []
        for flow, rate in zip(legit_leaf_flows, run.legit_in_legit_rates):
            (small if flow.path_id in small_pids else big).append(rate)
        variants[label] = Fig09Variant(
            all_rates=run.legit_in_legit_rates,
            small_domain_rates=small,
            big_domain_rates=big,
            attack_path_rates=run.legit_in_attack_rates,
        )
    return Fig09Result(with_agg=variants["with"], without_agg=variants["without"])
