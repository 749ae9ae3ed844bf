"""FIG-10: covert attacks.

Paper Section VI-D, Fig. 10: each of the 360 bots opens 1..20 concurrent
low-rate (0.2 Mbps — exactly the fair per-flow rate) connections to
*different destinations* across the target link.  At 7 connections/bot the
offered attack load already exceeds the 500 Mbps link.

* FLoc with ``n_max = 2``: a bot's flows collapse into at most two
  accounting units, which look like high-rate flows and are
  preferentially dropped — attack bandwidth is capped near
  ``n_max * fair share`` per bot (28.8 % of the link in the paper's
  setting) regardless of fanout.
* Pushback reacts only once aggregate drop rates are extreme (~12
  connections/bot) and sacrifices legitimate flows of attack paths.
* RED-PD's per-flow fairness hands the attacker bandwidth proportional
  to its flow count — at fanout 20 the 7200 attack flows vs 810
  legitimate flows get ~90 % of the link.
"""

from __future__ import annotations

from ..analysis.accounting import BandwidthBreakdown
from ..core.config import FLocConfig
from ..traffic.scenarios import build_tree_scenario
from .common import FunctionalSettings, run_breakdown


def run_fig10(
    settings: FunctionalSettings,
    scheme: str,
    fanout: int,
    per_flow_rate_mbps: float,
    n_max: int,
) -> BandwidthBreakdown:
    """One cell: the link's bandwidth breakdown under ``scheme`` while
    each bot opens ``fanout`` connections of ``per_flow_rate_mbps``,
    FLoc keeping at most ``n_max`` accounting units per source."""
    scenario = build_tree_scenario(
        scale_factor=settings.scale,
        attack_kind="covert",
        attack_rate_mbps=per_flow_rate_mbps,
        covert_fanout=fanout,
        n_servers=max(fanout, 1),
        seed=settings.seed,
        start_spread_seconds=1.0,
    )
    cfg = FLocConfig(n_max=n_max) if scheme.startswith("floc") else None
    return run_breakdown(scenario, scheme, settings, floc_config=cfg).breakdown
