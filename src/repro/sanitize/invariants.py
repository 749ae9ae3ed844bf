"""Runtime invariant sanitizer for both simulators.

A *sanitizer* is an invariant layer installed on a simulator through its
tick-hook interface (``add_tick_hook``), the same protocol the fault
schedules use.  Every ``check_interval`` ticks it sweeps a catalog of
invariants that a silent accounting bug would break long before the
figure-level output looks wrong:

Packet engine (:class:`EngineSanitizer`)
    * **route-links** — every packet waiting on a link or crossing a
      long-haul hop is where its own resolved route says
      (``pkt.links[pkt.hop]``), and that is the link the topology holds
      for ``route[hop] -> route[hop + 1]`` — the existence check the
      engine's per-hop lookup used to make before routes were resolved
      once at emission;
    * **conservation** — packets emitted = delivered + dropped + in
      flight, across every link, scheduled hop and delivery buffer;
    * **queue-bounds** — no link queue is longer than its buffer;
    * **capacity** — no link serviced more than ``capacity * elapsed``
      packets (plus one tick of banked credit) since the sanitizer was
      installed;
    * **token-nonnegative** — no FLoc token bucket holds negative tokens
      or more than its current size;
    * **monitor-counters** — per-flow service/drop counters never go
      negative;
    * **mtd-monotonic** — per-unit MTD drop records are non-decreasing in
      time (the tracker appends ticks; corruption reorders or negates
      them);
    * **aggregation-size** — the aggregation plan keeps the guaranteed
      identifier set within ``max(s_max, n_legit + 1)`` (Algorithm 1's
      feasibility bound) and attack aggregates hold exactly one share.

Fluid simulator (:class:`FluidSanitizer`)
    * **capacity** — the last tick's admitted volume at the target link
      does not exceed its capacity;
    * **admitted-nonnegative** / **rate-nonnegative** — no negative
      admitted volumes, send rates, or smoothed rates;
    * **window-bounds** — TCP fluid windows stay within ``[0.5, w_max]``;
    * **link-capacity-nonnegative** — no AS uplink has negative capacity
      (a degradation injector gone wrong);
    * **aggregation-size** — same plan bound as the packet side (the two
      simulators share ``build_plan``).

Two modes: ``strict`` raises :class:`~repro.errors.InvariantViolation`
with a tick-stamped diagnostic at the first failed check; ``record``
collects every violation into the :class:`SanitizerReport` for post-run
inspection.  Detection latency is at most one tick: hooks run at the
start of each tick, so state corrupted during tick *t* is caught at the
start of tick *t + 1*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import ConfigError, InvariantViolation

#: Accepted sanitizer modes (``None``/"off" disables installation).
MODES = ("strict", "record")

#: Absolute slack for floating-point token/credit comparisons.
_EPS = 1e-6


@dataclass
class Violation:
    """One failed invariant check."""

    tick: int
    invariant: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[tick {self.tick}] {self.invariant}: {self.detail}"


@dataclass
class SanitizerReport:
    """Accumulated outcome of a sanitizer's checks over one run."""

    mode: str
    violations: List[Violation] = field(default_factory=list)
    checks_run: int = 0
    last_checked_tick: int = -1

    @property
    def ok(self) -> bool:
        return not self.violations

    def rows(self) -> List[Tuple[int, str, str]]:
        """(tick, invariant, detail) rows for table/CSV output."""
        return [(v.tick, v.invariant, v.detail) for v in self.violations]

    def summary(self) -> str:
        if self.ok:
            return (
                f"sanitizer ok: {self.checks_run} sweeps, "
                f"0 violations (mode={self.mode})"
            )
        head = self.violations[0]
        return (
            f"sanitizer FAILED: {len(self.violations)} violation(s) over "
            f"{self.checks_run} sweeps; first: {head}"
        )


class _BaseSanitizer:
    """Mode handling and violation bookkeeping shared by both layers."""

    def __init__(self, mode: str = "strict", check_interval: int = 1) -> None:
        if mode not in MODES:
            raise ConfigError(
                f"unknown sanitizer mode {mode!r}; expected one of {MODES}"
            )
        if check_interval < 1:
            raise ConfigError(
                f"check_interval must be >= 1 tick, got {check_interval}"
            )
        self.mode = mode
        self.check_interval = check_interval
        self.report = SanitizerReport(mode=mode)

    def _flag(self, tick: int, invariant: str, detail: str) -> None:
        self.report.violations.append(Violation(tick, invariant, detail))
        if self.mode == "strict":
            raise InvariantViolation(invariant, tick, detail)

    def _due(self, tick: int) -> bool:
        if tick % self.check_interval != 0:
            return False
        self.report.checks_run += 1
        self.report.last_checked_tick = tick
        return True


class EngineSanitizer(_BaseSanitizer):
    """Invariant layer for :class:`~repro.net.engine.Engine`.

    Install with :meth:`install` (or :func:`install_sanitizer`); the
    sanitizer registers itself as a tick hook and snapshots per-link
    service baselines so the capacity invariant measures only the
    supervised window.  The object is picklable and travels with a
    checkpointed engine.
    """

    telemetry_label = "sanitizer"

    def __init__(self, mode: str = "strict", check_interval: int = 1) -> None:
        super().__init__(mode, check_interval)
        self._baselines: dict = {}  # (src, dst) -> (serviced_total, tick)

    def install(self, engine) -> "EngineSanitizer":
        for link in engine.topology.links():
            self._baselines[link.ends] = (link.serviced_total, engine.tick)
        engine.add_tick_hook(self)
        return self

    # -- the hook -------------------------------------------------------
    def __call__(self, engine, tick: int) -> None:
        if not self._due(tick):
            return
        self._check_route_links(engine, tick)
        self._check_conservation(engine, tick)
        self._check_links(engine, tick)
        self._check_policies(engine, tick)

    # -- invariants -----------------------------------------------------
    def _check_route_links(self, engine, tick: int) -> None:
        topology = engine.topology
        for link, pkts in engine.packets_in_transit():
            src, dst = link.src, link.dst
            held = topology.has_link(src, dst) and topology.link(src, dst) is link
            for pkt in pkts:
                hop, route = pkt.hop, pkt.route
                try:
                    ok = (
                        held
                        and pkt.links[hop] is link
                        and route[hop] == src
                        and route[hop + 1] == dst
                    )
                except IndexError:
                    ok = False
                if not ok:
                    why = (
                        "its route resolves that hop to another link"
                        if held
                        else "the topology does not hold that link"
                    )
                    self._flag(
                        tick,
                        "route-links",
                        f"{pkt!r} of route {route!r} is about to cross "
                        f"{link!r}, but {why}",
                    )

    def _check_conservation(self, engine, tick: int) -> None:
        emitted = engine.packets_emitted
        delivered = engine.packets_delivered
        dropped = engine.total_link_drops()
        in_flight = engine.in_flight_count()
        if emitted != delivered + dropped + in_flight:
            self._flag(
                tick,
                "conservation",
                f"created={emitted} != delivered={delivered} + "
                f"dropped={dropped} + in-flight={in_flight} "
                f"(leak of {emitted - delivered - dropped - in_flight})",
            )

    def _check_links(self, engine, tick: int) -> None:
        for link in engine.topology.links():
            q = len(link.queue)
            if link.buffer is not None and q > link.buffer:
                self._flag(
                    tick,
                    "queue-bounds",
                    f"link {link.src!r}->{link.dst!r} queue {q} exceeds "
                    f"buffer {link.buffer}",
                )
            if link.serviced_total < 0 or link.dropped_total < 0:
                self._flag(
                    tick,
                    "monitor-counters",
                    f"link {link.src!r}->{link.dst!r} has negative totals "
                    f"(serviced={link.serviced_total}, "
                    f"dropped={link.dropped_total})",
                )
            if link.capacity is not None:
                base_serviced, base_tick = self._baselines.get(
                    link.ends, (0, 0)
                )
                elapsed = max(0, tick - base_tick)
                allowed = link.capacity * elapsed + link.capacity + 1.0
                used = link.serviced_total - base_serviced
                if used > allowed + _EPS:
                    self._flag(
                        tick,
                        "capacity",
                        f"link {link.src!r}->{link.dst!r} serviced {used} "
                        f"packets in {elapsed} ticks, above capacity "
                        f"{link.capacity}/tick (allowed {allowed:.1f})",
                    )
            for mon in link.monitors:
                for counts, kind in (
                    (mon.service_counts, "service"),
                    (mon.drop_counts, "drop"),
                ):
                    for flow_id, count in counts.items():
                        if count < 0:
                            self._flag(
                                tick,
                                "monitor-counters",
                                f"monitor on {link.src!r}->{link.dst!r} has "
                                f"negative {kind} count {count} for flow "
                                f"{flow_id}",
                            )

    def _check_policies(self, engine, tick: int) -> None:
        for link in engine.topology.links():
            policy = link.policy
            if policy is None:
                continue
            for group in getattr(policy, "groups", {}).values():
                bucket = group.bucket
                # no upper-bound check: a mid-period set_params may shrink
                # the size below the tokens already granted, legitimately
                if bucket.tokens < -_EPS:
                    self._flag(
                        tick,
                        "token-nonnegative",
                        f"group {group.key!r} bucket holds {bucket.tokens} "
                        f"tokens",
                    )
            tracker = getattr(policy, "tracker", None)
            if tracker is not None:
                for key, ticks in tracker._drops.items():
                    prev = None
                    for t in ticks:
                        if t < 0 or (prev is not None and t < prev):
                            self._flag(
                                tick,
                                "mtd-monotonic",
                                f"drop record of unit {key!r} is not "
                                f"monotonic: {list(ticks)[:8]}...",
                            )
                            break
                        prev = t
            plan = getattr(policy, "plan", None)
            if plan is not None:
                _check_plan(self, plan, tick)


def _check_plan(sanitizer: _BaseSanitizer, plan, tick: int) -> None:
    """Shared aggregation-plan invariants (both simulators use build_plan)."""
    s_max = getattr(plan, "s_max", None)
    n_legit = getattr(plan, "n_legit_inputs", None)
    if s_max is not None and n_legit is not None and plan.n_groups:
        bound = max(s_max, n_legit + 1)
        if plan.n_groups > bound:
            sanitizer._flag(
                tick,
                "aggregation-size",
                f"plan holds {plan.n_groups} guaranteed identifiers, above "
                f"the feasibility bound max(s_max={s_max}, "
                f"n_legit+1={n_legit + 1})",
            )
    for key, share in plan.shares.items():
        if isinstance(key, tuple) and key and key[0] == "AGG-A":
            if abs(share - 1.0) > _EPS:
                sanitizer._flag(
                    tick,
                    "aggregation-size",
                    f"attack aggregate {key!r} holds {share} shares instead "
                    f"of the single punitive share",
                )
        if share <= 0:
            sanitizer._flag(
                tick,
                "aggregation-size",
                f"group {key!r} holds non-positive share {share}",
            )


class FluidSanitizer(_BaseSanitizer):
    """Invariant layer for :class:`~repro.inet.simulator.FluidSimulator`.

    Installed via the simulator's tick-hook interface.  The admitted-rate
    invariants examine ``sim._last_admitted`` — the volume the target link
    admitted on the *previous* tick — so a corrupted allocation is caught
    at the start of the next tick.
    """

    telemetry_label = "sanitizer"

    def install(self, sim) -> "FluidSanitizer":
        sim.add_tick_hook(self)
        return self

    def __call__(self, sim, tick: int) -> None:
        if not self._due(tick):
            return
        import numpy as np

        cap = sim.scn.target_capacity
        if cap < 0:
            self._flag(tick, "link-capacity-nonnegative",
                       f"target capacity is {cap}")
        if np.any(sim.scn.link_capacity < 0):
            bad = int(np.argmin(sim.scn.link_capacity))
            self._flag(
                tick,
                "link-capacity-nonnegative",
                f"AS {bad} uplink capacity is "
                f"{float(sim.scn.link_capacity[bad])}",
            )
        admitted = getattr(sim, "_last_admitted", None)
        if admitted is not None:
            total = float(admitted.sum())
            if total > cap * (1.0 + 1e-9) + _EPS:
                self._flag(
                    tick,
                    "capacity",
                    f"target link admitted {total:.6f} pkts/tick above "
                    f"capacity {cap}",
                )
            if admitted.size and float(admitted.min()) < -_EPS:
                bad = int(np.argmin(admitted))
                self._flag(
                    tick,
                    "admitted-nonnegative",
                    f"flow {bad} admitted {float(admitted[bad])} < 0",
                )
        if sim._rate_ewma.size and float(sim._rate_ewma.min()) < -_EPS:
            bad = int(np.argmin(sim._rate_ewma))
            self._flag(
                tick,
                "rate-nonnegative",
                f"flow {bad} smoothed rate is {float(sim._rate_ewma[bad])}",
            )
        if sim._legit_idx.size:
            w_legit = sim.w[sim._legit_idx]
            if float(w_legit.min()) < 0.5 - _EPS or np.any(
                w_legit > sim._w_max_legit + _EPS
            ):
                self._flag(
                    tick,
                    "window-bounds",
                    f"legit TCP window outside [0.5, w_max]: "
                    f"min={float(w_legit.min())}, max={float(w_legit.max())}",
                )
        plan = getattr(sim, "_plan", None)
        if plan is not None:
            _check_plan(self, plan, tick)


def install_sanitizer(
    host, mode: Optional[str], check_interval: int = 1
):
    """Install the right sanitizer flavour on ``host`` and return it.

    ``host`` is a packet :class:`~repro.net.engine.Engine` or a
    :class:`~repro.inet.simulator.FluidSimulator`; ``mode`` is ``"strict"``
    or ``"record"`` (``None``/``"off"`` returns ``None`` without
    installing anything, so call sites can pass a CLI flag straight
    through).
    """
    if mode is None or mode == "off":
        return None
    if hasattr(host, "topology"):
        return EngineSanitizer(mode, check_interval).install(host)
    return FluidSanitizer(mode, check_interval).install(host)
