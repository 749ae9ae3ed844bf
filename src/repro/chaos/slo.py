"""Resilience SLO oracles: judge one campaign's measurements.

The oracle layer is pure arithmetic over a campaign's *measurements* —
per-window legitimate bandwidth shares, the sanitizer's violation count,
and (optionally) a replay digest comparison — so every oracle is
unit-testable without running a simulator.

SLO catalog (see :class:`~repro.chaos.spec.SloSpec` for the knobs):

========== ==========================================================
``floor``           legitimate share >= ``floor`` in every window that
                    does not overlap a fault's *impact interval*
``recovery``        legitimate share back within ``epsilon`` of its
                    pre-fault mean by ``clear + warmup + slack``
``sanitizer``       zero runtime invariant violations (strict mode)
``replay``          two executions of the spec produce byte-identical
                    run digests
========== ==========================================================

*Impact intervals* extend each fault past its clear tick by a settle
allowance (one measurement window, matching the defense's configured
``restart_warmup_ticks``), because the guarantee the paper makes is about
steady state, not the ticks in which state is being rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.router import STATE_BOUNDS
from .spec import CampaignSpec, FaultSpec

#: Oracle names, in evaluation (and severity-of-report) order.
SLO_NAMES = ("floor", "recovery", "sanitizer", "replay", "bounded_state")


@dataclass(frozen=True)
class WindowShare:
    """Legitimate-traffic share of target capacity over one window."""

    index: int
    start: int
    stop: int
    legit_share: float


@dataclass(frozen=True)
class SloVerdict:
    """One oracle's judgement of one campaign run."""

    slo: str
    ok: bool
    detail: str


@dataclass
class SloReport:
    """All verdicts for one campaign run."""

    verdicts: List[SloVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def violated(self) -> Optional[SloVerdict]:
        """The first failing verdict, in :data:`SLO_NAMES` order."""
        for verdict in self.verdicts:
            if not verdict.ok:
                return verdict
        return None

    def violates(self, slo: str) -> bool:
        """Whether the named oracle failed in this report."""
        return any(v.slo == slo and not v.ok for v in self.verdicts)

    def rows(self) -> List[List[str]]:
        return [
            [v.slo, "ok" if v.ok else "VIOLATED", v.detail]
            for v in self.verdicts
        ]


# ----------------------------------------------------------------------
# fault timing helpers
# ----------------------------------------------------------------------
def settle_ticks(spec: CampaignSpec) -> int:
    """Post-clear settle allowance: the defense's warm-up window."""
    return spec.window_ticks


def impact_interval(fault: FaultSpec, spec: CampaignSpec) -> Tuple[int, int]:
    """``[start, stop)`` ticks during which the fault excuses the floor."""
    return fault.tick, fault.clear_tick() + settle_ticks(spec)


def last_clear_tick(spec: CampaignSpec) -> Optional[int]:
    """When the last fault condition is gone; None without faults."""
    if not spec.faults:
        return None
    return max(f.clear_tick() for f in spec.faults)


def first_fault_tick(spec: CampaignSpec) -> Optional[int]:
    if not spec.faults:
        return None
    return min(f.tick for f in spec.faults)


def recovery_deadline(spec: CampaignSpec) -> Optional[int]:
    """Tick by which the legitimate share must have recovered:
    ``last clear + restart_warmup_ticks + K`` (the campaign configures
    the defense's warm-up to one window; ``K`` is the SLO slack)."""
    clear = last_clear_tick(spec)
    if clear is None:
        return None
    return clear + settle_ticks(spec) + spec.slo.recovery_slack_ticks


def _overlaps(window: WindowShare, interval: Tuple[int, int]) -> bool:
    start, stop = interval
    return window.start < stop and start < window.stop


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def _provenance_detail(drop_provenance: Optional[Dict[str, float]]) -> str:
    """Cause attribution suffix for the floor verdict's detail line.

    Top three traced drop causes by volume (ties broken by name), so a
    failing floor immediately says *why* legitimate traffic lost share
    — e.g. preferential drops at the defense vs plain queue overflow.
    Empty when no provenance was traced.
    """
    if not drop_provenance:
        return ""
    top = sorted(drop_provenance.items(), key=lambda kv: (-kv[1], kv[0]))
    parts = [f"{cause}={value:g}" for cause, value in top[:3]]
    return "; traced drops: " + ", ".join(parts)


def _floor_verdict(
    spec: CampaignSpec,
    windows: List[WindowShare],
    drop_provenance: Optional[Dict[str, float]] = None,
) -> SloVerdict:
    intervals = [impact_interval(f, spec) for f in spec.faults]
    judged = [
        w
        for w in windows
        if not any(_overlaps(w, iv) for iv in intervals)
    ]
    if not judged:
        return SloVerdict(
            "floor", True, "skipped: every window overlaps a fault"
        )
    worst = min(judged, key=_share_key)
    ok = worst.legit_share >= spec.slo.floor
    return SloVerdict(
        "floor",
        ok,
        f"min legit share {worst.legit_share:.4f} in window "
        f"{worst.index} [{worst.start}, {worst.stop}) vs floor "
        f"{spec.slo.floor:.4f} ({len(judged)}/{len(windows)} windows "
        f"judged)" + _provenance_detail(drop_provenance),
    )


def _share_key(window: WindowShare) -> Tuple[float, int]:
    return (window.legit_share, window.index)


def _recovery_verdict(
    spec: CampaignSpec, windows: List[WindowShare]
) -> SloVerdict:
    deadline = recovery_deadline(spec)
    fault_start = first_fault_tick(spec)
    if deadline is None or fault_start is None:
        return SloVerdict("recovery", True, "skipped: no faults scheduled")
    pre = [w for w in windows if w.stop <= fault_start]
    post = [w for w in windows if w.start >= deadline]
    if not pre:
        return SloVerdict(
            "recovery", True, "skipped: no fault-free pre-fault window"
        )
    if not post:
        return SloVerdict(
            "recovery",
            True,
            f"skipped: no window at or after the recovery deadline "
            f"(tick {deadline})",
        )
    pre_mean = sum(w.legit_share for w in pre) / len(pre)
    post_mean = sum(w.legit_share for w in post) / len(post)
    ok = post_mean >= pre_mean - spec.slo.epsilon
    return SloVerdict(
        "recovery",
        ok,
        f"post-deadline mean {post_mean:.4f} vs pre-fault mean "
        f"{pre_mean:.4f} (epsilon {spec.slo.epsilon:.4f}, deadline tick "
        f"{deadline})",
    )


def _sanitizer_verdict(
    spec: CampaignSpec, sanitizer_violations: int
) -> SloVerdict:
    if spec.slo.sanitize == "off":
        return SloVerdict("sanitizer", True, "skipped: sanitizer off")
    if spec.slo.sanitize == "record":
        return SloVerdict(
            "sanitizer",
            True,
            f"recorded {sanitizer_violations} violation(s) (record mode "
            f"does not fail the SLO)",
        )
    ok = sanitizer_violations == 0
    return SloVerdict(
        "sanitizer",
        ok,
        f"{sanitizer_violations} runtime invariant violation(s)",
    )


def _replay_verdict(replay_matched: Optional[bool]) -> SloVerdict:
    if replay_matched is None:
        return SloVerdict("replay", True, "skipped: replay not verified")
    return SloVerdict(
        "replay",
        replay_matched,
        "re-execution digest "
        + ("matches" if replay_matched else "DIVERGES — nondeterminism"),
    )


def _bounded_state_verdict(
    spec: CampaignSpec,
    windows: List[WindowShare],
    eviction_stats: Optional[Dict[str, int]],
    tracked_paths_peak: int,
    state_peaks: Optional[Dict[str, int]] = None,
) -> SloVerdict:
    """Degradation SLO: the differential-guarantee floor for long-lived
    legitimate paths must survive identifier churn at a fixed memory
    budget, and the budget itself must actually hold — for the tracked
    paths and for every other per-identifier container of the router,
    each against its :data:`~repro.core.router.STATE_BOUNDS` multiple.

    Judged over the same fault-excused windows as the ``floor`` oracle
    (churn pressure is the adversary under test, not a fault), against
    ``slo.bounded_floor`` — deliberately separate from ``slo.floor`` so
    bounded-memory campaigns can state how much degradation eviction
    pressure is allowed to cost.
    """
    if spec.slo.bounded_floor is None:
        return SloVerdict(
            "bounded_state", True, "skipped: no bounded-state floor set"
        )
    evictions = (eviction_stats or {}).get("memory-pressure", 0)
    budget = spec.max_tracked_paths
    intervals = [impact_interval(f, spec) for f in spec.faults]
    judged = [
        w for w in windows if not any(_overlaps(w, iv) for iv in intervals)
    ]
    if not judged:
        return SloVerdict(
            "bounded_state", True, "skipped: every window overlaps a fault"
        )
    worst = min(judged, key=_share_key)
    ok = worst.legit_share >= spec.slo.bounded_floor
    budget_detail = ""
    if budget is not None:
        within = tracked_paths_peak <= budget
        budget_detail = (
            f"; peak tracked paths {tracked_paths_peak} vs budget "
            f"{budget}" + ("" if within else " EXCEEDED")
        )
        for name, peak in sorted((state_peaks or {}).items()):
            bound = STATE_BOUNDS[name] * budget
            if peak > bound:
                within = False
                budget_detail += f"; {name} peak {peak} vs {bound} EXCEEDED"
        ok = ok and within
    return SloVerdict(
        "bounded_state",
        ok,
        f"min legit share {worst.legit_share:.4f} in window {worst.index} "
        f"vs bounded floor {spec.slo.bounded_floor:.4f} under "
        f"{evictions} memory-pressure eviction(s)" + budget_detail,
    )


def evaluate_slos(
    spec: CampaignSpec,
    windows: List[WindowShare],
    sanitizer_violations: int,
    replay_matched: Optional[bool] = None,
    drop_provenance: Optional[Dict[str, float]] = None,
    eviction_stats: Optional[Dict[str, int]] = None,
    tracked_paths_peak: int = 0,
    state_peaks: Optional[Dict[str, int]] = None,
) -> SloReport:
    """Judge one campaign run against its full SLO catalog.

    ``drop_provenance`` is the campaign's traced per-cause drop totals
    (see :meth:`repro.telemetry.Telemetry.drop_provenance`); when given,
    the floor verdict's detail attributes the loss to its top causes.
    Provenance never changes a verdict's ``ok`` — it annotates.
    ``eviction_stats`` / ``tracked_paths_peak`` / ``state_peaks`` are the
    policy's state-pressure measurements feeding the ``bounded_state``
    oracle.
    """
    return SloReport(
        verdicts=[
            _floor_verdict(spec, windows, drop_provenance),
            _recovery_verdict(spec, windows),
            _sanitizer_verdict(spec, sanitizer_violations),
            _replay_verdict(replay_matched),
            _bounded_state_verdict(
                spec, windows, eviction_stats, tracked_paths_peak, state_peaks
            ),
        ]
    )
