"""Deterministic chaos campaigns with resilience SLOs and auto-shrinking.

The chaos engine stress-tests FLoc's dependability story end to end: it
samples *campaigns* — compositions of infrastructure faults
(:mod:`repro.faults`) and adaptive adversaries
(:mod:`repro.traffic.adaptive`) — runs each on either simulator under a
catalog of resilience SLOs (legitimate-share floor, bounded recovery,
sanitizer-clean, replay-identical), and on any violation delta-debugs the
campaign down to a minimal, replayable reproducer artifact.

Layers (bottom-up):

* :mod:`~repro.chaos.spec` — the typed campaign space: frozen dataclass
  specs, validation, JSON round-tripping, seed-deterministic sampling.
* :mod:`~repro.chaos.slo` — the SLO oracles, pure arithmetic over a
  run's measurements.
* :mod:`~repro.chaos.campaign` — spec interpretation on the packet
  engine or the fluid simulator; the sha256 run digest.
* :mod:`~repro.chaos.shrink` — greedy delta-debugging to a 1-minimal
  failing spec.
* :mod:`~repro.chaos.artifact` — byte-stable replay JSON artifacts and
  ``--replay`` verification.
* :mod:`~repro.chaos.engine` — the sweep: each campaign a crash-isolated
  task of the scheduler (:func:`repro.fleet.pool.run_fleet`).

Everything is deterministic in ``(seed, options)``: sampled specs, run
measurements, shrink trajectories, and artifact bytes.
"""

from .artifact import (
    ReplayOutcome,
    dump_artifact,
    load_artifact,
    replay_artifact,
    write_artifact,
)
from .campaign import (
    CampaignResult,
    Measurements,
    execute_campaign,
    run_campaign,
    run_digest,
)
from .engine import (
    CampaignJob,
    ChaosOptions,
    ChaosReport,
    chaos_tasks,
    run_chaos,
)
from .shrink import ShrinkResult, shrink_campaign
from .slo import (
    SLO_NAMES,
    SloReport,
    SloVerdict,
    WindowShare,
    evaluate_slos,
)
from .spec import (
    ATTACKER_MUTATIONS,
    FLUID_FAULT_KINDS,
    PACKET_FAULT_KINDS,
    SIMULATORS,
    AttackerSpec,
    CampaignSpec,
    FaultSpec,
    SloSpec,
    default_slo,
    sample_campaign,
    with_slo,
)

__all__ = [
    "ATTACKER_MUTATIONS",
    "FLUID_FAULT_KINDS",
    "PACKET_FAULT_KINDS",
    "SIMULATORS",
    "SLO_NAMES",
    "AttackerSpec",
    "CampaignJob",
    "CampaignResult",
    "CampaignSpec",
    "ChaosOptions",
    "ChaosReport",
    "FaultSpec",
    "Measurements",
    "ReplayOutcome",
    "ShrinkResult",
    "SloReport",
    "SloSpec",
    "SloVerdict",
    "WindowShare",
    "chaos_tasks",
    "default_slo",
    "dump_artifact",
    "evaluate_slos",
    "execute_campaign",
    "load_artifact",
    "replay_artifact",
    "run_campaign",
    "run_chaos",
    "run_digest",
    "sample_campaign",
    "shrink_campaign",
    "with_slo",
    "write_artifact",
]
