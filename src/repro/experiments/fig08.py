"""FIG-8: differential bandwidth guarantees vs attack send rate.

Paper Section VI-C, Fig. 8: with ``|S|_max = 25`` (so at least four of the
six attack paths must aggregate), the link bandwidth used by

* legitimate flows of legitimate paths,
* legitimate flows of attack paths, and
* attack flows

is measured while the per-bot send rate sweeps 0.2 - 4.0 Mbps, for FLoc,
Pushback and RED-PD.  The paper's shape claims: FLoc keeps the
legitimate-path share above ~80 % (close to 21/25 = 0.84) at every rate,
and as bots speed up, FLoc's preferential drops hand their bandwidth to
the legitimate flows *inside* attack paths; Pushback sacrifices
legitimate flows in attack paths; RED-PD loses legitimate-path bandwidth
at high rates.
"""

from __future__ import annotations

from ..analysis.accounting import BandwidthBreakdown
from ..core.config import FLocConfig
from ..traffic.scenarios import build_tree_scenario
from .common import FunctionalSettings, run_breakdown


def run_fig08(
    settings: FunctionalSettings, scheme: str, rate: float, s_max: int
) -> BandwidthBreakdown:
    """One cell: the link's bandwidth breakdown under ``scheme`` while
    the bots send CBR at ``rate`` Mbps each, FLoc aggregating attack
    paths down to ``s_max`` identifiers."""
    scenario = build_tree_scenario(
        scale_factor=settings.scale,
        attack_kind="cbr",
        attack_rate_mbps=rate,
        seed=settings.seed,
        start_spread_seconds=1.0,
    )
    cfg = FLocConfig(s_max=s_max) if scheme.startswith("floc") else None
    return run_breakdown(scenario, scheme, settings, floc_config=cfg).breakdown
