"""FLoc: Dependable Link Access for Legitimate Traffic in Flooding Attacks.

A complete, from-scratch reproduction of Lee & Gligor's FLoc router
subsystem (ICDCS 2010 / CMU-CyLab-11-019) together with every substrate
its evaluation depends on:

* a discrete-time packet-level network simulation engine
  (:mod:`repro.net`),
* a Reno-style TCP substrate and the analytic flow model FLoc's equations
  derive from (:mod:`repro.tcp`),
* attack traffic generators — CBR, Shrew, covert — and the Section VI
  scenario builder (:mod:`repro.traffic`),
* FLoc itself: path identifiers, capabilities, per-path token buckets,
  MTD-based attack identification, preferential drops, the scalable
  drop-record filter, conformance tracking, and path aggregation
  (:mod:`repro.core`),
* the comparison baselines — RED, RED-PD, Pushback, per-flow fairness
  (:mod:`repro.baselines`),
* Internet-scale topology synthesis and a vectorised fluid simulator
  (:mod:`repro.inet`),
* deterministic fault injection — link flaps with rerouting, router
  restarts, state corruption, clock jitter, silent counter corruption —
  for robustness studies on either simulator (:mod:`repro.faults`),
* a runtime invariant sanitizer installable on both simulators
  (:mod:`repro.sanitize`),
* a crash-safe supervised experiment runner with checkpoint/resume,
  watchdog deadlines and bounded retries (:mod:`repro.runner`),
* a deterministic chaos-campaign engine — seed-sampled fault + adaptive
  adversary compositions judged against resilience SLOs, with
  delta-debugged, replayable reproducer artifacts (:mod:`repro.chaos`),
* a unified telemetry layer — metrics registry and tick-keyed decision
  tracing with per-drop provenance, observation-only by construction
  (:mod:`repro.telemetry`) — and cross-process span tracing with a
  per-subsystem tick profiler (:mod:`repro.trace`),
* measurement/reporting helpers (:mod:`repro.analysis`) and one runner
  per paper figure (:mod:`repro.experiments`).

Quickstart
----------
>>> from repro import build_tree_scenario, FLocPolicy, FLocConfig
>>> scenario = build_tree_scenario(scale_factor=0.05, attack_kind="cbr")
>>> scenario.attach_policy(FLocPolicy(FLocConfig()))
>>> monitor = scenario.add_target_monitor(start_seconds=2.0)
>>> scenario.run_seconds(6.0)
>>> monitor.total_serviced > 0
True
"""

from .errors import (
    CapabilityError,
    CheckpointError,
    ConfigError,
    DeadlineExceeded,
    Interrupted,
    InvariantViolation,
    ReproError,
    RunnerError,
    SimulationError,
    TopologyError,
)
from .units import DEFAULT_SCALE, INTERNET_SCALE, UnitScale
from .net import (
    Engine,
    FlowInfo,
    LinkMonitor,
    Packet,
    Topology,
    TrafficSource,
)
from .tcp import TcpSource
from .traffic import (
    CbrSource,
    CovertSource,
    ShrewSource,
    TreeScenario,
    build_tree_scenario,
)
from .core import FLocConfig, FLocPolicy
from .baselines import FairSharePolicy, PushbackPolicy, RedPdPolicy, RedPolicy
from .inet import FluidSimulator, build_internet_scenario
from .faults import (
    CounterCorruption,
    FaultSchedule,
    FluidCounterCorruption,
    FluidLinkDegrade,
    LinkFlap,
    clock_jitter,
    fluid_restart,
    router_restart,
    state_corruption,
)
from .sanitize import (
    EngineSanitizer,
    FluidSanitizer,
    SanitizerReport,
    install_sanitizer,
)
from .runner import (
    CheckpointStore,
    GracefulShutdown,
    RetryPolicy,
    Watchdog,
    build_figure_job,
)
from .chaos import (
    AttackerSpec,
    CampaignSpec,
    ChaosOptions,
    FaultSpec,
    SloSpec,
    replay_artifact,
    run_campaign,
    run_chaos,
    sample_campaign,
    shrink_campaign,
)
from .telemetry import (
    DROP_CAUSES,
    NULL_TELEMETRY,
    MetricsRegistry,
    NullTelemetry,
    Telemetry,
    current,
    use,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ConfigError",
    "TopologyError",
    "SimulationError",
    "CapabilityError",
    "UnitScale",
    "DEFAULT_SCALE",
    "INTERNET_SCALE",
    "Engine",
    "FlowInfo",
    "LinkMonitor",
    "Packet",
    "Topology",
    "TrafficSource",
    "TcpSource",
    "CbrSource",
    "ShrewSource",
    "CovertSource",
    "TreeScenario",
    "build_tree_scenario",
    "FLocConfig",
    "FLocPolicy",
    "RedPolicy",
    "RedPdPolicy",
    "PushbackPolicy",
    "FairSharePolicy",
    "FluidSimulator",
    "build_internet_scenario",
    "FaultSchedule",
    "LinkFlap",
    "FluidLinkDegrade",
    "router_restart",
    "state_corruption",
    "clock_jitter",
    "fluid_restart",
    "CounterCorruption",
    "FluidCounterCorruption",
    "InvariantViolation",
    "RunnerError",
    "CheckpointError",
    "DeadlineExceeded",
    "Interrupted",
    "EngineSanitizer",
    "FluidSanitizer",
    "SanitizerReport",
    "install_sanitizer",
    "CheckpointStore",
    "RetryPolicy",
    "Watchdog",
    "GracefulShutdown",
    "build_figure_job",
    "AttackerSpec",
    "CampaignSpec",
    "ChaosOptions",
    "FaultSpec",
    "SloSpec",
    "replay_artifact",
    "run_campaign",
    "run_chaos",
    "sample_campaign",
    "shrink_campaign",
    "DROP_CAUSES",
    "NULL_TELEMETRY",
    "MetricsRegistry",
    "NullTelemetry",
    "Telemetry",
    "current",
    "use",
    "__version__",
]
