"""The chaos sweep: sample N campaigns, run each as a supervised task.

Each campaign is one crash-isolated task of the scheduler
(:func:`repro.fleet.pool.run_fleet`): a crash inside campaign 7 is
retried per the run's policy and, failing that, recorded as a failed
task without taking down campaigns 8..N; with a checkpoint store a
killed sweep resumes past every completed campaign.  A task is a
:class:`CampaignJob` — a frozen recipe of primitives, so it crosses a
spawn boundary as readily as it runs in-process — and its result is a
plain dict of primitives, so it rides through pickle checkpoints
unchanged.

On an SLO violation the task delta-debugs the campaign down to a minimal
reproducer (:mod:`repro.chaos.shrink`) and writes a replay artifact
(:mod:`repro.chaos.artifact`) into the sweep's artifact directory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..errors import ConfigError
from ..runner.checkpoint import CheckpointStore
from ..runner.supervisor import RetryPolicy, UnitContext
from ..trace import current_tracer
from .artifact import write_artifact
from .campaign import run_campaign
from .shrink import shrink_campaign
from .spec import (
    SIMULATORS,
    CampaignSpec,
    SloSpec,
    exhaustion_campaign,
    sample_campaign,
)

if TYPE_CHECKING:  # the scheduler is imported where it is called
    from ..fleet.pool import FleetOptions, FleetReport


@dataclass
class ChaosOptions:
    """Everything one ``repro chaos`` sweep is parameterized by."""

    seed: int = 0
    campaigns: int = 3
    simulator: str = "both"  # "packet" | "fluid" | "both"
    slo: Optional[SloSpec] = None  # None = per-simulator default catalog
    shrink: bool = True
    max_shrink_trials: int = 64
    artifact_dir: Optional[str] = "chaos-artifacts"
    #: Extra state-exhaustion campaigns (path-churn flood vs a bounded
    #: memory budget) appended after the sampled ones; 0 = none.
    exhaustion: int = 0
    #: Hard per-router path budget for the exhaustion campaigns; None
    #: leaves the backend's default hot-tier size in charge.
    max_tracked_paths: Optional[int] = None

    def validate(self) -> None:
        if self.campaigns < 1:
            raise ConfigError(
                f"campaigns must be >= 1, got {self.campaigns}"
            )
        if self.exhaustion < 0:
            raise ConfigError(
                f"exhaustion must be >= 0, got {self.exhaustion}"
            )
        if self.simulator not in SIMULATORS + ("both",):
            raise ConfigError(
                f"simulator must be one of {SIMULATORS + ('both',)}, got "
                f"{self.simulator!r}"
            )
        if self.max_shrink_trials < 1:
            raise ConfigError(
                f"max_shrink_trials must be >= 1, got "
                f"{self.max_shrink_trials}"
            )


@dataclass(frozen=True)
class CampaignJob:
    """One campaign as a schedulable task: sweep name + spec dict.

    ``run`` returns a dict of primitives: the spec, the run digest,
    per-SLO verdict rows, and — when the campaign violated an SLO and
    shrinking is on — the shrink summary and the written artifact path.
    """

    campaign: str
    spec: Dict[str, Any]
    shrink: bool = True
    max_shrink_trials: int = 64
    artifact_dir: Optional[str] = None

    @property
    def name(self) -> str:
        return self.campaign

    def run(self, ctx: UnitContext) -> Dict[str, Any]:
        spec = CampaignSpec.from_dict(self.spec)
        tracer = current_tracer()
        with tracer.span(
            "campaign.run", cat="campaign",
            parent=ctx.trace_parent, simulator=spec.simulator,
        ) as span:
            result = run_campaign(spec)
            span.end(ok=result.ok)
        out: Dict[str, Any] = {
            "spec": spec.to_dict(),
            "simulator": spec.simulator,
            "ok": result.ok,
            "digest": result.digest,
            "verdicts": result.report.rows(),
            "provenance": dict(result.measurements.drop_provenance),
            "artifact": None,
            "shrink": None,
        }
        violated = result.report.violated()
        if violated is None or not self.shrink:
            return out
        with tracer.span(
            "campaign.shrink", cat="campaign",
            parent=ctx.trace_parent, slo=violated.slo,
        ) as span:
            shrunk = shrink_campaign(
                spec,
                violated.slo,
                max_trials=self.max_shrink_trials,
            )
            span.end(trials=shrunk.trials)
        out["shrink"] = {
            "slo": shrunk.slo,
            "trials": shrunk.trials,
            "steps": list(shrunk.steps),
            "minimal_spec": shrunk.minimal.to_dict(),
            "minimal_digest": shrunk.final.digest,
        }
        if self.artifact_dir is not None:
            path = write_artifact(
                shrunk,
                Path(self.artifact_dir) / f"reproducer-{ctx.name}.json",
            )
            out["artifact"] = str(path)
            tracer.event(
                "artifact.write", cat="campaign",
                parent=ctx.trace_parent, path=str(path),
            )
        return out


@dataclass
class ChaosReport:
    """Outcome of one sweep: the scheduler's report plus SLO tallies."""

    job: "FleetReport"

    @property
    def campaigns(self) -> List[Dict[str, Any]]:
        """Completed campaign results, in sweep order."""
        return [
            self.job.results[name] for name in sorted(self.job.results)
        ]

    @property
    def violations(self) -> List[Dict[str, Any]]:
        return [c for c in self.campaigns if not c["ok"]]

    @property
    def artifacts(self) -> List[str]:
        return [
            c["artifact"] for c in self.campaigns if c["artifact"] is not None
        ]

    @property
    def status(self) -> str:
        """Sweep status: the job status, except a clean job with SLO
        violations reports ``"violations"``."""
        if self.job.status == "ok" and self.violations:
            return "violations"
        return self.job.status


def chaos_tasks(options: ChaosOptions) -> List[CampaignJob]:
    """The sweep's task list, in sweep (canonical) order; a pure function
    of ``options``."""
    options.validate()
    specs = [
        (
            f"campaign-{index:03d}",
            sample_campaign(
                options.seed,
                index,
                simulator=options.simulator,
                slo=options.slo,
            ),
        )
        for index in range(options.campaigns)
    ] + [
        # state-exhaustion campaigns run after the sampled ones
        (
            f"exhaustion-{index:03d}",
            exhaustion_campaign(
                options.seed,
                index,
                slo=options.slo,
                max_tracked_paths=options.max_tracked_paths,
            ),
        )
        for index in range(options.exhaustion)
    ]
    return [
        CampaignJob(
            campaign=name,
            spec=spec.to_dict(),
            shrink=options.shrink,
            max_shrink_trials=options.max_shrink_trials,
            artifact_dir=options.artifact_dir,
        )
        for name, spec in specs
    ]


def chaos_fingerprint(options: ChaosOptions) -> Dict[str, Any]:
    """The job fingerprint a sweep's checkpoint store is pinned to."""
    fingerprint: Dict[str, Any] = {
        "kind": "chaos-sweep",
        "seed": options.seed,
        "campaigns": options.campaigns,
        "simulator": options.simulator,
        # constant since sweeps always leave silent faults out; kept so
        # existing checkpoint stores still resume
        "include_silent": False,
    }
    if options.exhaustion:
        # keyed in only when requested so pre-existing sweep checkpoints
        # keep their fingerprints
        fingerprint["exhaustion"] = options.exhaustion
        # exhaustion sweeps always run the sketch backend; kept so
        # existing checkpoint stores still resume
        fingerprint["state_backend"] = "sketch"
        fingerprint["max_tracked_paths"] = options.max_tracked_paths
    return fingerprint


def run_chaos(
    options: ChaosOptions,
    store: Optional[CheckpointStore] = None,
    fleet: Optional["FleetOptions"] = None,
    log: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run one chaos sweep through the scheduler.

    ``fleet`` carries the supervision knobs (executor, deadline,
    telemetry mode, process faults); its retry policy defaults to one
    seeded from the sweep.
    """
    from ..fleet.pool import FleetOptions, run_fleet

    fleet = fleet if fleet is not None else FleetOptions()
    if fleet.retry is None:
        fleet = replace(fleet, retry=RetryPolicy(seed=options.seed))
    return ChaosReport(
        job=run_fleet(
            chaos_tasks(options), store, fleet, log=log,
            fingerprint=chaos_fingerprint(options),
        )
    )
