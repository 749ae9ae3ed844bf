"""Campaign execution: interpret a spec on either simulator, judge SLOs.

One :func:`run_campaign` call is the atomic unit of the chaos engine: it
builds a fresh scenario from the spec's seed, installs the spec's faults
(via :mod:`repro.faults` schedules), attacker squads (via
:mod:`repro.traffic.adaptive`), and the runtime invariant sanitizer in
record mode, runs the campaign's full tick count, measures per-window
legitimate shares at the target link, and evaluates the SLO catalog
(:mod:`repro.chaos.slo`).

Determinism is the contract everything else (replay artifacts, the
shrinker's bisection, CI) leans on: a campaign's measurements are a pure
function of its spec, so the sha256 *run digest* over those measurements
is too.  The ``replay`` SLO enforces the contract by executing the spec
twice and comparing digests.

Packet campaigns run ``spec.scheme`` (FLoc by default) on the Section VI
tree (scaled down by ``spec.scale``) with the spec's squads placed on the
designated attack leaves; fluid campaigns run the ``spec.scheme``
strategy on a reduced Internet-scale scenario with the whole bot
population driven by the spec's behaviour toggles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import FLocConfig
from ..core.router import FLocPolicy
from ..errors import ConfigError
from ..experiments.common import FunctionalSettings, make_policy
from ..faults import FaultSchedule
from ..faults.injectors import (
    FluidCounterCorruption,
    FluidLinkDegrade,
    busiest_legit_as,
    fluid_restart,
)
from ..inet.scenarios import InternetScenario, build_internet_scenario
from ..inet.simulator import FluidSimulator
from ..net.engine import LinkMonitor
from ..sanitize import Violation, install_sanitizer
from ..telemetry import NullTelemetry, Telemetry, current
from ..traffic.adaptive import (
    AdaptiveCbrSource,
    AdaptiveShrewSource,
    FluidRateRandomizer,
)
from ..traffic.churn import PathChurnFloodSource
from ..traffic.scenarios import DST_HUB, ROOT, TreeScenario, build_tree_scenario
from .slo import SloReport, WindowShare, evaluate_slos, settle_ticks
from .spec import AttackerSpec, CampaignSpec

#: FLoc aggregation bound used by every chaos campaign.
CHAOS_S_MAX = 25

#: Fluid scenario size (reduced ratios of the paper's Internet scale so
#: a campaign runs in a second or two; shares are ratio-stable).
FLUID_SCENARIO: Dict[str, Any] = {
    "n_as": 120,
    "n_legit_sources": 400,
    "n_legit_ases": 40,
    "n_bots": 2_000,
    "target_capacity": 300.0,
}


@dataclass
class Measurements:
    """Everything one execution of a spec produces."""

    windows: List[WindowShare] = field(default_factory=list)
    fault_log: List[Tuple[int, str]] = field(default_factory=list)
    sanitizer_violations: int = 0
    #: The violations themselves, for a caller that names them; the
    #: digest keeps only their count.
    violations: List[Violation] = field(default_factory=list)
    digest: str = ""
    #: Traced drop totals by cause (telemetry provenance).  Deliberately
    #: NOT part of the run digest: telemetry is observation-only, and the
    #: digest contract predates it.
    drop_provenance: Dict[str, float] = field(default_factory=dict)
    #: Policy state-pressure measurements for the ``bounded_state``
    #: oracle (packet campaigns).  Like drop provenance, deliberately NOT
    #: part of the run digest — the digest contract predates them, and a
    #: default exact-mode campaign must keep its historical digest.
    eviction_stats: Dict[str, int] = field(default_factory=dict)
    tracked_paths_peak: int = 0
    #: per-container peaks (``FLocPolicy.state_peaks``)
    state_peaks: Dict[str, int] = field(default_factory=dict)


@dataclass
class CampaignResult:
    """One judged campaign: spec, measurements, and the SLO report."""

    spec: CampaignSpec
    measurements: Measurements
    report: SloReport

    @property
    def digest(self) -> str:
        return self.measurements.digest

    @property
    def ok(self) -> bool:
        return self.report.ok


def run_digest(
    spec: CampaignSpec,
    measurements: Measurements,
    fluid: Optional[Dict[str, object]] = None,
) -> str:
    """Canonical sha256 over a run's spec and observable outcome.

    A fluid campaign also passes ``fluid``: the end-of-run
    ``FluidResult.shares`` and each window's mean attack share, so a
    change confined to either moves its digest.  A packet campaign's
    payload has no such key."""
    payload: Dict[str, object] = {
        "spec": spec.to_dict(),
        "windows": [
            [w.index, w.start, w.stop, w.legit_share]
            for w in measurements.windows
        ],
        "fault_log": [[tick, name] for tick, name in measurements.fault_log],
        "sanitizer_violations": measurements.sanitizer_violations,
    }
    if fluid is not None:
        payload["fluid"] = fluid
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _campaign_telemetry() -> NullTelemetry:
    """Telemetry a campaign records drop provenance into.

    The session's active telemetry when one is enabled (``repro chaos
    --telemetry``); otherwise a private metrics-only instance, so the
    floor oracle always sees cause attribution without the caller having
    to opt in.
    """
    tel = current()
    if tel.enabled:
        return tel
    return Telemetry(mode="metrics")


def _provenance_delta(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """Drop totals attributable to one campaign on a shared telemetry."""
    out: Dict[str, float] = {}
    for cause, total in after.items():
        delta = float(total) - float(before.get(cause, 0.0))
        if delta > 0.0:
            out[cause] = delta
    return out


# ----------------------------------------------------------------------
# packet-engine execution
# ----------------------------------------------------------------------
def _packet_fault_schedule(
    spec: CampaignSpec, schedule: FaultSchedule
) -> None:
    target = (ROOT, DST_HUB)
    for fault in spec.faults:
        if fault.kind == "router_restart":
            schedule.router_restart(*target, tick=fault.tick)
        elif fault.kind == "corrupt_state":
            schedule.corrupt_state(
                *target, tick=fault.tick, fraction=fault.param
            )
        elif fault.kind == "clock_jitter":
            schedule.clock_jitter(
                *target, tick=fault.tick, max_offset=int(fault.param)
            )
        elif fault.kind == "counter_corruption":
            schedule.counter_corruption(*target, tick=fault.tick)
        elif fault.kind == "link_flap":
            schedule.link_flap(
                "root.0",
                ROOT,
                down_tick=fault.tick,
                up_tick=fault.tick + fault.duration,
            )
        else:  # pragma: no cover - spec.validate rejects unknown kinds
            raise ConfigError(f"unmapped packet fault kind {fault.kind!r}")


def _add_packet_squad(
    scenario: TreeScenario,
    spec: CampaignSpec,
    squad_index: int,
    squad: AttackerSpec,
    attack_leaves: List[Tuple[int, str]],
) -> None:
    engine = scenario.engine
    leaf_index, leaf = attack_leaves[squad_index % len(attack_leaves)]
    pid = scenario.path_ids[leaf_index]
    rate = scenario.units.mbps_to_pkts_per_tick(squad.rate_mbps)
    # churn pool: the bot's own identifier first, then every other domain
    # identifier it could plausibly spoof
    pool = (pid,) + tuple(p for p in scenario.path_ids if p != pid)
    period = squad.period_ticks
    on_ticks = max(1, round(squad.on_fraction * period)) if period else 0
    for b in range(squad.bots):
        host = f"cb_{squad_index}_{b}"
        scenario.topology.add_duplex_link(host, leaf, capacity=None)
        server = scenario.servers[b % len(scenario.servers)]
        flow = engine.open_flow(host, server, pid, is_attack=True)
        scenario.attack_flows.append(flow)
        if squad.kind == "cbr":
            source: Any = AdaptiveCbrSource(
                flow,
                rate=rate,
                mutations=squad.mutations,
                path_id_pool=pool,
                adapt_interval=max(1, spec.window_ticks // 2),
            )
        elif squad.kind == "churn-flood":
            # state-exhaustion adversary: period_ticks is the churn
            # interval; identifiers are drawn from a large fresh space
            source = PathChurnFloodSource(
                flow,
                rate=rate,
                churn_interval=squad.period_ticks or spec.window_ticks // 2,
                id_space=1_000_000,
            )
        else:
            phase = 0
            if squad.kind == "wave":
                # coordinated on/off wave: bots take turns bursting
                phase = (b * period) // squad.bots
            source = AdaptiveShrewSource(
                flow,
                burst_rate=rate,
                period_ticks=period,
                on_ticks=on_ticks,
                mutations=squad.mutations,
                phase=phase,
            )
        engine.add_source(source)
        scenario.attack_sources.append(source)


def _execute_packet(spec: CampaignSpec) -> Measurements:
    scenario = build_tree_scenario(
        scale_factor=spec.scale,
        attack_kind="none",
        seed=spec.seed,
    )
    # backup path between the root's first two subtrees, idle until a
    # link_flap fault takes the root.0 uplink down; added after flow
    # setup, so it leaves the initial shortest routes unchanged
    scenario.topology.add_duplex_link("root.0", "root.1", capacity=None)
    cfg_kwargs: Dict[str, Any] = {}
    if spec.state_backend != "exact":
        cfg_kwargs["state_backend"] = spec.state_backend
    if spec.max_tracked_paths is not None:
        # one budget knob for either backend: the exact mode's LRU bound
        # and the sketch mode's hot-tier size
        cfg_kwargs["max_tracked_paths"] = spec.max_tracked_paths
        cfg_kwargs["sketch_hot_paths"] = spec.max_tracked_paths
    cfg = FLocConfig(
        s_max=CHAOS_S_MAX,
        restart_warmup_ticks=settle_ticks(spec),
        **cfg_kwargs,
    )
    # FLoc through this module's name, which a test can substitute
    if spec.scheme == "floc":
        policy = FLocPolicy(cfg)
    else:
        policy = make_policy(spec.scheme, FunctionalSettings(), cfg)
    scenario.attach_policy(policy)

    leaves = list(scenario.as_of_leaf)
    attack_pids = set(scenario.attack_path_ids)
    attack_leaves = [
        (i, leaf)
        for i, leaf in enumerate(leaves)
        if scenario.path_ids[i] in attack_pids
    ]
    for squad_index, squad in enumerate(spec.attackers):
        _add_packet_squad(scenario, spec, squad_index, squad, attack_leaves)

    monitors = []
    for index in range(spec.n_windows):
        start, stop = spec.window_bounds(index)
        monitors.append(
            scenario.engine.add_monitor(
                *scenario.target,
                LinkMonitor(start_tick=start, stop_tick=stop),
            )
        )

    schedule = FaultSchedule()
    _packet_fault_schedule(spec, schedule)
    schedule.install(scenario.engine)
    sanitizer = install_sanitizer(
        scenario.engine,
        None if spec.slo.sanitize == "off" else "record",
    )
    tel = _campaign_telemetry()
    scenario.engine.telemetry = tel
    provenance_before = dict(tel.drop_provenance())
    scenario.engine.run(spec.total_ticks)

    legit_ids = {f.flow_id for f in scenario.legit_flows}
    budget = scenario.capacity * spec.window_ticks
    windows = []
    for index, monitor in enumerate(monitors):
        start, stop = spec.window_bounds(index)
        serviced = sum(
            count
            for flow_id, count in monitor.service_counts.items()
            if flow_id in legit_ids
        )
        windows.append(
            WindowShare(
                index=index,
                start=start,
                stop=stop,
                legit_share=serviced / budget,
            )
        )
    violations = sanitizer.report.violations if sanitizer is not None else []
    measurements = Measurements(
        windows=windows,
        fault_log=list(schedule.log),
        sanitizer_violations=len(violations),
        violations=list(violations),
        drop_provenance=_provenance_delta(
            provenance_before, tel.drop_provenance()
        ),
    )
    if spec.scheme.startswith("floc"):
        measurements.eviction_stats = dict(policy.eviction_stats)
        measurements.tracked_paths_peak = policy.tracked_paths_peak
        measurements.state_peaks = dict(policy.state_peaks)
    measurements.digest = run_digest(spec, measurements)
    return measurements


# ----------------------------------------------------------------------
# fluid-simulator execution
# ----------------------------------------------------------------------
def _fluid_fault_schedule(
    spec: CampaignSpec, schedule: FaultSchedule, scn: InternetScenario
) -> None:
    for fault in spec.faults:
        if fault.kind == "router_restart":
            schedule.at(
                fault.tick,
                fluid_restart(warmup_ticks=settle_ticks(spec)),
                name="defense-restart",
            )
        elif fault.kind == "link_degrade":
            degrade = FluidLinkDegrade(
                busiest_legit_as(scn), factor=fault.param
            )
            schedule.at(fault.tick, degrade.down, name="uplink-degrade")
            schedule.at(
                fault.tick + fault.duration, degrade.up, name="uplink-restore"
            )
        elif fault.kind == "counter_corruption":
            schedule.at(
                fault.tick,
                FluidCounterCorruption(fraction=0.05, skew=5.0),
                name="counter-corrupt",
            )
        else:  # pragma: no cover - spec.validate rejects unknown kinds
            raise ConfigError(f"unmapped fluid fault kind {fault.kind!r}")


def _execute_fluid(spec: CampaignSpec) -> Measurements:
    scn = build_internet_scenario(seed=spec.seed, **FLUID_SCENARIO)
    sim = FluidSimulator(
        scn, strategy=spec.scheme, s_max=CHAOS_S_MAX, seed=spec.seed
    )
    for squad in spec.attackers:
        if "rerandomize" in squad.mutations:
            sim.add_tick_hook(
                FluidRateRandomizer(
                    interval=squad.period_ticks or 50, spread=0.5
                )
            )
    schedule = FaultSchedule()
    _fluid_fault_schedule(spec, schedule, scn)
    schedule.install(sim)
    sanitizer = install_sanitizer(
        sim, None if spec.slo.sanitize == "off" else "record"
    )
    tel = _campaign_telemetry()
    sim.telemetry = tel
    provenance_before = dict(tel.drop_provenance())
    result = sim.run(
        ticks=spec.total_ticks, warmup=spec.warmup_ticks, record_series=True
    )

    by_tick = {tick: (ll + la, at) for tick, ll, la, at in result.series}
    windows = []
    attack_shares = []
    for index in range(spec.n_windows):
        start, stop = spec.window_bounds(index)
        points = [by_tick[t] for t in range(start, stop) if t in by_tick]
        n = len(points)
        windows.append(
            WindowShare(
                index=index,
                start=start,
                stop=stop,
                legit_share=sum(p[0] for p in points) / n if n else 0.0,
            )
        )
        attack_shares.append(sum(p[1] for p in points) / n if n else 0.0)
    violations = sanitizer.report.violations if sanitizer is not None else []
    measurements = Measurements(
        windows=windows,
        fault_log=list(schedule.log),
        sanitizer_violations=len(violations),
        violations=list(violations),
        drop_provenance=_provenance_delta(
            provenance_before, tel.drop_provenance()
        ),
    )
    measurements.digest = run_digest(
        spec,
        measurements,
        fluid={"shares": result.shares, "attack_shares": attack_shares},
    )
    return measurements


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def execute_campaign(spec: CampaignSpec) -> Measurements:
    """One deterministic execution of a validated spec (no SLO verdicts)."""
    spec.validate()
    if spec.simulator == "packet":
        return _execute_packet(spec)
    return _execute_fluid(spec)


def run_campaign(
    spec: CampaignSpec, verify_replay: Optional[bool] = None
) -> CampaignResult:
    """Execute a campaign and judge it against its SLO catalog.

    ``verify_replay`` overrides the spec's ``slo.verify_replay`` (the
    shrinker disables it on bisection trials: one execution per trial).
    """
    measurements = execute_campaign(spec)
    do_replay = (
        spec.slo.verify_replay if verify_replay is None else verify_replay
    )
    replay_matched: Optional[bool] = None
    if do_replay:
        replay_matched = execute_campaign(spec).digest == measurements.digest
    report = evaluate_slos(
        spec,
        measurements.windows,
        measurements.sanitizer_violations,
        replay_matched,
        drop_provenance=measurements.drop_provenance or None,
        eviction_stats=measurements.eviction_stats or None,
        tracked_paths_peak=measurements.tracked_paths_peak,
        state_peaks=measurements.state_peaks or None,
    )
    return CampaignResult(spec=spec, measurements=measurements, report=report)
