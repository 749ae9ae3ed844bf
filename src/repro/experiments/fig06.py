"""FIG-6: attack confinement under three flooding strategies.

Paper Section VI-A, Figs. 6(a)-(c): with FLoc on the 27-path tree,
per-path bandwidth stays near the fair allocation (500/27 = 18.5 Mbps)
regardless of whether a path hosts attackers, for

* (a) the high-population TCP attack (extra TCP sources — adaptive,
  indistinguishable per flow; confinement comes from per-path buckets),
* (b) the CBR attack (360 x 2.0 Mbps = 720 Mbps offered on a 500 Mbps
  link; attack flows have tiny MTDs and are rate-limited), where
  legitimate paths do slightly *better* than in (a) because the bucket
  activates early for attack paths,
* (c) the coordinated Shrew attack (2.0 Mbps bursts for 0.25 RTT each
  RTT), handled at least as well as CBR but with higher variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..analysis.timeseries import CategorySeriesMonitor
from ..core.config import FLocConfig
from ..traffic.scenarios import build_tree_scenario
from .common import FunctionalSettings, make_policy


@dataclass
class Fig06Result:
    """Per-path mean bandwidth (Mbps) and time series for one attack."""

    attack_kind: str
    fair_path_mbps: float  # C / n_paths, in (scaled) Mbps
    path_mean_mbps: Dict[Tuple[int, ...], float]
    attack_path_ids: List[Tuple[int, ...]]
    path_series: Dict[Tuple[int, ...], List[float]]  # pkts/tick per bin

    @property
    def legit_path_means(self) -> List[float]:
        attack = set(self.attack_path_ids)
        return [v for k, v in self.path_mean_mbps.items() if k not in attack]

    @property
    def attack_path_means(self) -> List[float]:
        attack = set(self.attack_path_ids)
        return [v for k, v in self.path_mean_mbps.items() if k in attack]


def run_fig06(
    attack_kind: str, settings: FunctionalSettings = FunctionalSettings()
) -> Fig06Result:
    """Run one confinement experiment (``attack_kind`` in tcp/cbr/shrew)
    at 2.0 Mbps per attack source."""
    scenario = build_tree_scenario(
        scale_factor=settings.scale,
        attack_kind=attack_kind,
        attack_rate_mbps=2.0,
        seed=settings.seed,
        start_spread_seconds=1.0,
    )
    scenario.attach_policy(make_policy("floc", settings, FLocConfig()))
    units = scenario.units
    start = units.seconds_to_ticks(settings.warmup_seconds)
    stop = units.seconds_to_ticks(settings.total_seconds)
    bin_ticks = units.seconds_to_ticks(1.0)
    monitor = CategorySeriesMonitor(
        key_fn=lambda pkt: pkt.path_id,
        bin_ticks=bin_ticks,
        start_tick=start,
        stop_tick=stop,
    )
    scenario.engine.add_monitor(*scenario.target, monitor)
    scenario.run_seconds(settings.total_seconds)

    n_bins = int(settings.measure_seconds)
    path_mean = {}
    path_series = {}
    for pid in scenario.path_ids:
        series = monitor.rate_series(pid, n_bins)
        path_series[pid] = series
        path_mean[pid] = units.pkts_per_tick_to_mbps(
            sum(series) / len(series) if series else 0.0
        )
    fair = units.pkts_per_tick_to_mbps(scenario.capacity / len(scenario.path_ids))
    return Fig06Result(
        attack_kind=attack_kind,
        fair_path_mbps=fair,
        path_mean_mbps=path_mean,
        attack_path_ids=list(scenario.attack_path_ids),
        path_series=path_series,
    )
