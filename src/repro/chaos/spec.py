"""The typed campaign space: specs, validation, serialization, sampling.

A *campaign* is one complete chaos experiment: a simulator choice, a run
shape (warmup plus ``n_windows`` measurement windows of ``window_ticks``
each), a composition of fault events, a set of adaptive attacker squads,
and the resilience SLOs the run is judged against.  Campaign specs are

* **typed** — plain frozen dataclasses over primitives and tuples;
* **picklable and JSON-round-trippable** — no callables anywhere, so a
  spec can ride through :mod:`repro.runner` checkpoints and be written
  verbatim into a replay artifact;
* **seed-deterministic** — :func:`sample_campaign` derives every random
  choice from ``sha256(seed, index)``, so a sweep's campaign list is a
  pure function of its seed.

The spec layer never touches a simulator; :mod:`repro.chaos.campaign`
interprets specs, and :mod:`repro.chaos.shrink` edits them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigError
from ..experiments.common import SCHEMES
from ..inet.simulator import STRATEGIES

#: Simulator backends a campaign can target.
SIMULATORS = ("packet", "fluid")

#: Fault kinds available on the packet engine.
PACKET_FAULT_KINDS = (
    "router_restart",
    "link_flap",
    "corrupt_state",
    "clock_jitter",
    "counter_corruption",
)
#: Fault kinds available on the fluid simulator.
FLUID_FAULT_KINDS = ("router_restart", "link_degrade", "counter_corruption")

#: Fault kinds with a down/up window (``duration`` ticks long).
WINDOWED_FAULT_KINDS = ("link_flap", "link_degrade")

#: Silent-corruption kinds: they never recover by themselves, so the
#: sampler leaves them out (the sanitizer-clean SLO would be violated by
#: construction); a hand-built :class:`CampaignSpec` may still hold one.
SILENT_FAULT_KINDS = ("counter_corruption",)

#: Attacker squad kinds on the packet engine.  ``churn-flood`` is the
#: state-exhaustion adversary (:class:`repro.traffic.PathChurnFloodSource`):
#: it attacks router *memory* by rotating path identifiers, so it only
#: enters the default sample space via :func:`exhaustion_campaign` —
#: adding it to the seed-pinned generic sampler would silently reshuffle
#: every shipped sweep.
PACKET_ATTACKER_KINDS = ("cbr", "shrew", "wave", "churn-flood")
#: The generic sampler's packet squad pool (seed-pinned; see above).
SAMPLED_PACKET_ATTACKER_KINDS = ("cbr", "shrew", "wave")
#: Attacker behaviours on the fluid simulator (one bot population,
#: behaviour toggles only).
FLUID_ATTACKER_KINDS = ("fluid-bots",)

#: Mutations each attacker kind understands (order = sampling order).
#: ``churn-flood`` has none: unconditional cadence churn *is* its whole
#: behaviour (``period_ticks`` is the churn interval).
ATTACKER_MUTATIONS: Dict[str, Tuple[str, ...]] = {
    "cbr": ("rerandomize", "churn"),
    "shrew": ("rephase", "rerandomize"),
    "wave": ("rephase", "rerandomize"),
    "churn-flood": (),
    "fluid-bots": ("rerandomize",),
}

#: Sanitizer handling accepted by :class:`SloSpec`.
SLO_SANITIZE_MODES = ("strict", "record", "off")


def chaos_rng(seed: int, name: str) -> random.Random:
    """Deterministic RNG derivation, same idiom as ``Engine.spawn_rng``."""
    digest = hashlib.sha256(f"chaos:{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ----------------------------------------------------------------------
# spec dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpec:
    """One fault event in a campaign.

    ``duration`` is only meaningful for the windowed kinds (link flap /
    degrade: the fault clears at ``tick + duration``); ``param`` carries
    the kind-specific scalar — corruption fraction, jitter offset bound,
    or degrade factor.
    """

    kind: str
    tick: int
    duration: int = 0
    param: float = 0.0

    def clear_tick(self) -> int:
        """Tick at which the fault condition itself is gone (recovery of
        the defense's state may take longer; see :mod:`repro.chaos.slo`)."""
        if self.kind in WINDOWED_FAULT_KINDS:
            return self.tick + self.duration
        return self.tick

    def validate(self, simulator: str) -> None:
        kinds = (
            PACKET_FAULT_KINDS if simulator == "packet" else FLUID_FAULT_KINDS
        )
        if self.kind not in kinds:
            raise ConfigError(
                f"fault kind {self.kind!r} is not available on the "
                f"{simulator} simulator; choose one of {kinds}"
            )
        if self.tick < 0:
            raise ConfigError(f"fault tick must be >= 0, got {self.tick}")
        if self.kind in WINDOWED_FAULT_KINDS:
            if self.duration < 1:
                raise ConfigError(
                    f"{self.kind} needs duration >= 1 tick, got "
                    f"{self.duration}"
                )
        elif self.duration != 0:
            raise ConfigError(
                f"{self.kind} is instantaneous; duration must be 0, got "
                f"{self.duration}"
            )
        if self.kind == "corrupt_state" and not 0.0 < self.param <= 1.0:
            raise ConfigError(
                f"corrupt_state param (fraction) must be in (0, 1], got "
                f"{self.param}"
            )
        if self.kind == "clock_jitter" and self.param < 0:
            raise ConfigError(
                f"clock_jitter param (max offset) must be >= 0, got "
                f"{self.param}"
            )
        if self.kind == "link_degrade" and not 0.0 <= self.param < 1.0:
            raise ConfigError(
                f"link_degrade param (capacity factor) must be in [0, 1), "
                f"got {self.param}"
            )


@dataclass(frozen=True)
class AttackerSpec:
    """One squad of adaptive attack bots.

    On the packet engine a squad is ``bots`` sources of ``kind`` placed
    on one attack leaf; on the fluid simulator the single ``fluid-bots``
    squad toggles behaviours of the scenario's whole bot population.
    ``mutations`` lists the adaptive behaviours enabled — an empty tuple
    degrades the squad to its non-adaptive base source, which is exactly
    what the shrinker exploits.
    """

    kind: str
    bots: int = 2
    rate_mbps: float = 2.0
    period_ticks: int = 0  # shrew/wave cycle; fluid re-randomize interval
    on_fraction: float = 0.25  # shrew/wave duty cycle
    mutations: Tuple[str, ...] = ()

    def validate(self, simulator: str) -> None:
        kinds = (
            PACKET_ATTACKER_KINDS
            if simulator == "packet"
            else FLUID_ATTACKER_KINDS
        )
        if self.kind not in kinds:
            raise ConfigError(
                f"attacker kind {self.kind!r} is not available on the "
                f"{simulator} simulator; choose one of {kinds}"
            )
        if self.bots < 1:
            raise ConfigError(f"bots must be >= 1, got {self.bots}")
        if self.rate_mbps <= 0:
            raise ConfigError(
                f"rate_mbps must be > 0, got {self.rate_mbps}"
            )
        if self.kind in ("shrew", "wave"):
            if self.period_ticks < 2:
                raise ConfigError(
                    f"{self.kind} needs period_ticks >= 2, got "
                    f"{self.period_ticks}"
                )
            if not 0.0 < self.on_fraction <= 1.0:
                raise ConfigError(
                    f"on_fraction must be in (0, 1], got {self.on_fraction}"
                )
        if self.kind == "churn-flood" and self.period_ticks < 1:
            raise ConfigError(
                f"churn-flood needs period_ticks >= 1 (the churn "
                f"interval), got {self.period_ticks}"
            )
        allowed = ATTACKER_MUTATIONS[self.kind]
        for name in self.mutations:
            if name not in allowed:
                raise ConfigError(
                    f"mutation {name!r} is not understood by {self.kind!r} "
                    f"attackers; choose a subset of {allowed}"
                )
        if len(set(self.mutations)) != len(self.mutations):
            raise ConfigError(
                f"duplicate mutations in {self.mutations!r}"
            )


@dataclass(frozen=True)
class SloSpec:
    """The resilience guarantees a campaign is judged against.

    * **floor** — in every measurement window not overlapping a fault's
      impact interval, the legitimate flows' share of target-link
      capacity must be at least ``floor``;
    * **recovery** — after the last fault clears, the legitimate share
      must return to within ``epsilon`` of its pre-fault mean no later
      than ``restart_warmup_ticks + recovery_slack_ticks`` (the policy's
      warm-up window is the campaign's ``window_ticks``);
    * **sanitizer-clean** — with ``sanitize="strict"``, any runtime
      invariant violation recorded by :mod:`repro.sanitize` fails the
      campaign (``"record"`` only reports; ``"off"`` skips installation);
    * **replay-identical** — with ``verify_replay=True`` the campaign is
      executed twice from the same spec and the two run digests must be
      byte-identical;
    * **bounded-state** — with ``bounded_floor`` set, the legitimate
      share must stay at or above it in every fault-free window *and*
      the policy's peak tracked-path count must respect the campaign's
      ``max_tracked_paths`` budget — the differential-guarantee floor
      for long-lived legitimate paths under identifier churn at a fixed
      memory budget (``None`` skips the oracle).
    """

    floor: float = 0.2
    epsilon: float = 0.15
    recovery_slack_ticks: int = 150
    sanitize: str = "strict"
    verify_replay: bool = True
    bounded_floor: Optional[float] = None

    def validate(self) -> None:
        if not 0.0 <= self.floor <= 1.0:
            raise ConfigError(
                f"floor must be in [0, 1], got {self.floor}"
            )
        if self.bounded_floor is not None and not (
            0.0 <= self.bounded_floor <= 1.0
        ):
            raise ConfigError(
                f"bounded_floor must be in [0, 1], got {self.bounded_floor}"
            )
        if self.epsilon < 0:
            raise ConfigError(
                f"epsilon must be >= 0, got {self.epsilon}"
            )
        if self.recovery_slack_ticks < 0:
            raise ConfigError(
                f"recovery_slack_ticks must be >= 0, got "
                f"{self.recovery_slack_ticks}"
            )
        if self.sanitize not in SLO_SANITIZE_MODES:
            raise ConfigError(
                f"sanitize must be one of {SLO_SANITIZE_MODES}, got "
                f"{self.sanitize!r}"
            )


@dataclass(frozen=True)
class CampaignSpec:
    """One complete chaos campaign (see module docstring)."""

    seed: int
    simulator: str
    warmup_ticks: int
    window_ticks: int
    n_windows: int
    scale: float = 0.05  # packet scenario scale factor
    faults: Tuple[FaultSpec, ...] = ()
    attackers: Tuple[AttackerSpec, ...] = ()
    slo: SloSpec = field(default_factory=SloSpec)
    #: Router state backend for the campaign's FLoc policy ("exact" or
    #: "sketch"); packet simulator only.
    state_backend: str = "exact"
    #: Hot-tier path budget handed to the policy (``max_tracked_paths``
    #: in exact mode, ``sketch_hot_paths`` in sketch mode); ``None``
    #: keeps the config defaults (exact: unbounded).
    max_tracked_paths: Optional[int] = None
    #: The defense on the target link: a ``make_policy`` scheme on the
    #: packet simulator, a fluid strategy on the fluid one.  The two
    #: fields above configure FLoc and need a FLoc scheme.
    scheme: str = "floc"

    @property
    def total_ticks(self) -> int:
        return self.warmup_ticks + self.n_windows * self.window_ticks

    def window_bounds(self, index: int) -> Tuple[int, int]:
        """(start, stop) ticks of measurement window ``index``."""
        start = self.warmup_ticks + index * self.window_ticks
        return start, start + self.window_ticks

    def validate(self) -> None:
        if self.simulator not in SIMULATORS:
            raise ConfigError(
                f"unknown simulator {self.simulator!r}; choose one of "
                f"{SIMULATORS}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError(f"seed must be an int, got {self.seed!r}")
        if self.warmup_ticks < 1:
            raise ConfigError(
                f"warmup_ticks must be >= 1, got {self.warmup_ticks}"
            )
        if self.window_ticks < 1:
            raise ConfigError(
                f"window_ticks must be >= 1, got {self.window_ticks}"
            )
        if self.n_windows < 2:
            raise ConfigError(
                f"n_windows must be >= 2, got {self.n_windows}"
            )
        if not self.scale > 0:
            raise ConfigError(f"scale must be > 0, got {self.scale}")
        for fault in self.faults:
            fault.validate(self.simulator)
            if fault.clear_tick() >= self.total_ticks:
                raise ConfigError(
                    f"fault {fault.kind!r} clears at {fault.clear_tick()}, "
                    f"beyond the campaign's {self.total_ticks} ticks"
                )
        for attacker in self.attackers:
            attacker.validate(self.simulator)
        if self.state_backend not in ("exact", "sketch"):
            raise ConfigError(
                f"state_backend must be 'exact' or 'sketch', got "
                f"{self.state_backend!r}"
            )
        if self.max_tracked_paths is not None and self.max_tracked_paths < 1:
            raise ConfigError(
                f"max_tracked_paths must be >= 1, got "
                f"{self.max_tracked_paths}"
            )
        if self.simulator == "fluid" and self.state_backend != "exact":
            raise ConfigError(
                "the fluid simulator's state is bounded by its AS count; "
                "state_backend='sketch' only applies to the packet engine"
            )
        schemes: Tuple[str, ...] = (
            SCHEMES if self.simulator == "packet" else STRATEGIES
        )
        if self.scheme not in schemes:
            raise ConfigError(
                f"scheme {self.scheme!r} is not available on the "
                f"{self.simulator} simulator; choose one of {schemes}"
            )
        if not self.scheme.startswith("floc") and (
            self.state_backend != "exact" or self.max_tracked_paths is not None
        ):
            raise ConfigError(
                f"state_backend and max_tracked_paths configure FLoc; "
                f"scheme {self.scheme!r} has no path state"
            )
        self.slo.validate()

    # ------------------------------------------------------------------
    # serialization (replay artifacts)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict that :meth:`from_dict` round-trips exactly.

        Fields younger than the shipped replay artifacts
        (``state_backend``, ``max_tracked_paths``, ``scheme``,
        ``slo.bounded_floor``) are omitted at their defaults: the dict
        feeds :func:`repro.chaos.campaign.run_digest`, so a default spec
        must serialize byte-identically to the shipped replay artifacts.
        """
        out = asdict(self)
        out["faults"] = [asdict(f) for f in self.faults]
        out["attackers"] = [
            dict(asdict(a), mutations=list(a.mutations))
            for a in self.attackers
        ]
        if self.state_backend == "exact":
            del out["state_backend"]
        if self.max_tracked_paths is None:
            del out["max_tracked_paths"]
        if self.scheme == "floc":
            del out["scheme"]
        if self.slo.bounded_floor is None:
            del out["slo"]["bounded_floor"]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        try:
            faults = tuple(FaultSpec(**f) for f in data["faults"])
            attackers = tuple(
                AttackerSpec(
                    **dict(a, mutations=tuple(a["mutations"]))
                )
                for a in data["attackers"]
            )
            slo = SloSpec(**data["slo"])
            spec = cls(
                seed=data["seed"],
                simulator=data["simulator"],
                warmup_ticks=data["warmup_ticks"],
                window_ticks=data["window_ticks"],
                n_windows=data["n_windows"],
                scale=data["scale"],
                faults=faults,
                attackers=attackers,
                slo=slo,
                state_backend=data.get("state_backend", "exact"),
                max_tracked_paths=data.get("max_tracked_paths"),
                scheme=data.get("scheme", "floc"),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed campaign spec: {exc}") from None
        spec.validate()
        return spec


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------
#: Packet campaigns: run shape (tuned so every sampled fault leaves both
#: pre-fault windows and at least one post-recovery-deadline window).
PACKET_SHAPE = {"warmup_ticks": 300, "window_ticks": 150, "n_windows": 8}
#: Fluid campaigns: shorter windows — the fluid model converges faster.
FLUID_SHAPE = {"warmup_ticks": 120, "window_ticks": 60, "n_windows": 8}

#: Floor defaults per simulator (calibrated against FLoc's shipped
#: default scenarios; see tests/chaos/test_campaign.py regression locks).
DEFAULT_FLOORS = {"packet": 0.2, "fluid": 0.3}


def default_slo(simulator: str, **overrides: Any) -> SloSpec:
    """The shipped SLO catalog instance for one simulator."""
    shape = PACKET_SHAPE if simulator == "packet" else FLUID_SHAPE
    base: Dict[str, Any] = {
        "floor": DEFAULT_FLOORS[simulator],
        "recovery_slack_ticks": shape["window_ticks"],
    }
    base.update({k: v for k, v in overrides.items() if v is not None})
    return SloSpec(**base)


def _sample_faults(
    rng: random.Random,
    simulator: str,
    shape: Dict[str, int],
) -> Tuple[FaultSpec, ...]:
    warmup = shape["warmup_ticks"]
    window = shape["window_ticks"]
    kinds = [
        k
        for k in (
            PACKET_FAULT_KINDS if simulator == "packet" else FLUID_FAULT_KINDS
        )
        if k not in SILENT_FAULT_KINDS
    ]
    n_faults = rng.randint(1, 2)
    faults: List[FaultSpec] = []
    # fault ticks stay inside [warmup + window, warmup + (n-4)*window] so
    # pre-fault windows and a post-recovery-deadline window always exist
    lo = warmup + window
    hi = warmup + (shape["n_windows"] - 4) * window
    for _ in range(n_faults):
        kind = rng.choice(kinds)
        tick = rng.randrange(lo, hi)
        duration = 0
        param = 0.0
        if kind in WINDOWED_FAULT_KINDS:
            duration = rng.randrange(window // 2, window)
        if kind == "corrupt_state":
            param = rng.uniform(0.25, 0.75)
        elif kind == "clock_jitter":
            param = float(rng.randrange(5, 20))
        elif kind == "link_degrade":
            param = rng.uniform(0.0, 0.5)
        faults.append(
            FaultSpec(kind=kind, tick=tick, duration=duration, param=param)
        )
    faults.sort(key=lambda f: (f.tick, f.kind))
    return tuple(faults)


def _sample_attackers(
    rng: random.Random, simulator: str, shape: Dict[str, int]
) -> Tuple[AttackerSpec, ...]:
    if simulator == "fluid":
        mutations = (
            ("rerandomize",) if rng.random() < 0.75 else ()
        )
        return (
            AttackerSpec(
                kind="fluid-bots",
                bots=1,
                rate_mbps=1.0,
                period_ticks=rng.choice((30, 50)),
                mutations=mutations,
            ),
        )
    squads: List[AttackerSpec] = []
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice(list(SAMPLED_PACKET_ATTACKER_KINDS))
        allowed = ATTACKER_MUTATIONS[kind]
        mutations = tuple(
            name for name in allowed if rng.random() < 0.6
        )
        period = 0
        if kind in ("shrew", "wave"):
            period = rng.choice((10, 20, 40))
        squads.append(
            AttackerSpec(
                kind=kind,
                bots=rng.randint(2, 4),
                rate_mbps=rng.uniform(1.5, 2.5),
                period_ticks=period,
                mutations=mutations,
            )
        )
    return tuple(squads)


def sample_campaign(
    seed: int,
    index: int,
    simulator: str = "both",
    slo: Optional[SloSpec] = None,
) -> CampaignSpec:
    """Sample campaign ``index`` of a sweep, deterministically from
    ``seed``.

    ``simulator`` may be ``"packet"``, ``"fluid"``, or ``"both"`` (the
    backend is then itself a sampled choice, packet-biased).  ``slo``
    overrides the per-simulator default catalog.  The silent-corruption
    fault kinds are never sampled.
    """
    if simulator not in SIMULATORS + ("both",):
        raise ConfigError(
            f"simulator must be one of {SIMULATORS + ('both',)}, got "
            f"{simulator!r}"
        )
    rng = chaos_rng(seed, f"campaign-{index}")
    if simulator == "both":
        backend = "fluid" if rng.random() < 0.25 else "packet"
    else:
        backend = simulator
    shape = PACKET_SHAPE if backend == "packet" else FLUID_SHAPE
    spec = CampaignSpec(
        seed=seed * 1_000_003 + index,
        simulator=backend,
        warmup_ticks=shape["warmup_ticks"],
        window_ticks=shape["window_ticks"],
        n_windows=shape["n_windows"],
        faults=_sample_faults(rng, backend, shape),
        attackers=_sample_attackers(rng, backend, shape),
        slo=slo if slo is not None else default_slo(backend),
    )
    spec.validate()
    return spec


#: Default differential-guarantee floor for long-lived legitimate paths
#: under identifier churn at a bounded memory budget.  Deliberately
#: below the fault-free ``floor`` default: eviction pressure is allowed
#: to degrade the guarantee, not to collapse it.
DEFAULT_BOUNDED_FLOOR = 0.1

#: Hot-tier budget handed to exhaustion campaigns (small enough that the
#: churn adversary forces sustained evictions at chaos scale).
DEFAULT_EXHAUSTION_BUDGET = 64


def exhaustion_campaign(
    seed: int,
    index: int,
    slo: Optional[SloSpec] = None,
    state_backend: str = "sketch",
    max_tracked_paths: Optional[int] = None,
) -> CampaignSpec:
    """Sample state-exhaustion campaign ``index``, deterministically.

    A separate sampler rather than a new kind in the generic pool so the
    shipped seed-pinned sweeps stay byte-identical.  Every campaign runs
    on the packet engine, fields a ``churn-flood`` squad under a small
    hot-tier budget, and is judged by the ``bounded_state`` oracle (the
    ``bounded_floor`` default is :data:`DEFAULT_BOUNDED_FLOOR`).
    """
    rng = chaos_rng(seed, f"exhaustion-{index}")
    shape = PACKET_SHAPE
    budget = (
        max_tracked_paths
        if max_tracked_paths is not None
        else DEFAULT_EXHAUSTION_BUDGET
    )
    squads = (
        AttackerSpec(
            kind="churn-flood",
            bots=rng.randint(2, 4),
            rate_mbps=rng.uniform(1.5, 2.5),
            period_ticks=rng.choice((25, 50, 75)),
        ),
    )
    base_slo = slo if slo is not None else default_slo("packet")
    if base_slo.bounded_floor is None:
        base_slo = replace(base_slo, bounded_floor=DEFAULT_BOUNDED_FLOOR)
    spec = CampaignSpec(
        seed=seed * 1_000_003 + index,
        simulator="packet",
        warmup_ticks=shape["warmup_ticks"],
        window_ticks=shape["window_ticks"],
        n_windows=shape["n_windows"],
        attackers=squads,
        slo=base_slo,
        state_backend=state_backend,
        max_tracked_paths=budget,
    )
    spec.validate()
    return spec


def with_slo(spec: CampaignSpec, **overrides: Any) -> CampaignSpec:
    """A copy of ``spec`` with SLO fields replaced (None = keep)."""
    kept = {k: v for k, v in overrides.items() if v is not None}
    return replace(spec, slo=replace(spec.slo, **kept))
