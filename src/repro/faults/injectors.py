"""Fault injectors for the packet-level engine and the fluid simulator.

An *injector* is any callable ``fn(host, tick, rng)`` — the host is the
simulator the schedule is installed on (:class:`~repro.net.engine.Engine`
or :class:`~repro.inet.simulator.FluidSimulator`), ``tick`` is the tick the
fault fires at and ``rng`` is the schedule's dedicated deterministic RNG
(derived from the host seed, so a run with a fault schedule is exactly
reproducible).

Two stateful injector pairs model transient faults that must undo
themselves — :class:`LinkFlap` (packet level) and
:class:`FluidLinkDegrade` (fluid level) — and a set of callable classes
wrap the :class:`~repro.net.policy.LinkPolicy` fault hooks (restart,
partial state corruption, clock jitter).  Injectors are plain picklable
objects (no closures) so a simulator with an installed fault schedule can
be checkpointed mid-run by :mod:`repro.runner`.

:class:`CounterCorruption` and :class:`FluidCounterCorruption` silently
corrupt internal accounting state without any behavioural side effect —
exactly the class of bug the :mod:`repro.sanitize` invariant layer exists
to catch (strict mode must flag them within one tick).
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from ..errors import ConfigError, SimulationError, TopologyError


def _target_policy(engine, src, dst):
    policy = engine.topology.link(src, dst).policy
    if policy is None:
        raise SimulationError(
            f"link {src!r} -> {dst!r} has no policy to inject a fault into"
        )
    return policy


def _uses_hop(route, src, dst) -> bool:
    return any(
        route[i] == src and route[i + 1] == dst for i in range(len(route) - 1)
    )


class LinkFlap:
    """A directed link going down and (later) back up.

    :meth:`down` fails the link, loses its queued packets and reroutes
    every flow whose forward or reverse route crosses it onto the current
    shortest alternative; flows with no alternative are left on their old
    route and black-hole at the failure (their packets are counted as
    ``dropped_total`` without touching the admission policy's drop
    records, mirroring the paper's assumption that FLoc state tracks
    congestion drops, not outages).  :meth:`up` restores the link and puts
    the rerouted flows back on their original paths, so the pre-fault
    routing — and FLoc's per-path accounting — is unchanged after the
    flap.
    """

    def __init__(self, src, dst) -> None:
        self.src = src
        self.dst = dst
        self._saved: Dict[int, Tuple[tuple, tuple]] = {}

    def down(self, engine, tick: int, rng: random.Random) -> None:
        engine.fail_link(self.src, self.dst)
        for flow in engine.flows.values():
            if not (
                _uses_hop(flow.route, self.src, self.dst)
                or _uses_hop(flow.reverse_route, self.src, self.dst)
            ):
                continue
            self._saved[flow.flow_id] = (flow.route, flow.reverse_route)
            try:
                engine.reroute_flow(flow)
            except TopologyError:
                # no alternative path: the flow black-holes until `up`
                pass

    def up(self, engine, tick: int, rng: random.Random) -> None:
        engine.restore_link(self.src, self.dst)
        for flow_id, (route, reverse_route) in self._saved.items():
            flow = engine.flows.get(flow_id)
            if flow is not None:
                flow.route = route
                flow.reverse_route = reverse_route
        self._saved.clear()


class router_restart:
    """Injector: crash/restart the policy guarding ``src -> dst``.

    Volatile policy state (token buckets, MTD drop records, conformance
    EWMAs, aggregation plan) is wiped; FLoc enters its warm-up mode (see
    :meth:`~repro.core.router.FLocPolicy.restart`).
    """

    def __init__(self, src, dst) -> None:
        self.src = src
        self.dst = dst

    def __call__(self, engine, tick: int, rng: random.Random) -> None:
        _target_policy(engine, self.src, self.dst).restart(tick)


class state_corruption:
    """Injector: the policy on ``src -> dst`` forgets a random ``fraction``
    of its volatile records (failed line card / partial memory loss)."""

    def __init__(self, src, dst, fraction: float = 0.5) -> None:
        self.src = src
        self.dst = dst
        self.fraction = fraction

    def __call__(self, engine, tick: int, rng: random.Random) -> None:
        _target_policy(engine, self.src, self.dst).corrupt_state(
            self.fraction, rng
        )


class clock_jitter:
    """Injector: shift the policy's measurement phase by a random offset
    in ``[-max_offset, max_offset]`` (NTP step / VM pause)."""

    def __init__(self, src, dst, max_offset: int = 10) -> None:
        self.src = src
        self.dst = dst
        self.max_offset = max_offset

    def __call__(self, engine, tick: int, rng: random.Random) -> None:
        offset = rng.randint(-self.max_offset, self.max_offset)
        _target_policy(engine, self.src, self.dst).jitter_clock(offset)


class CounterCorruption:
    """Injector: silently corrupt an internal accounting counter.

    Unlike :class:`state_corruption` (which models honest state *loss*
    the policy knows how to recover from), this models a silent bug — a
    counter skewed without any behavioural signal.  Targets:

    * ``"ledger"`` — skew the engine's packet-conservation ledger
      (``packets_delivered``), breaking
      created = delivered + dropped + in-flight;
    * ``"tokens"`` — drive one FLoc group's token bucket negative.

    The :mod:`repro.sanitize` strict mode must flag either within one
    tick; with no sanitizer installed the run completes quietly with
    subtly wrong numbers, which is the failure mode this exists to
    demonstrate.
    """

    def __init__(self, src, dst, target: str = "ledger", skew: int = 7) -> None:
        if target not in ("ledger", "tokens"):
            raise ConfigError(
                f"unknown corruption target {target!r}; "
                f"choose 'ledger' or 'tokens'"
            )
        self.src = src
        self.dst = dst
        self.target = target
        self.skew = skew

    def __call__(self, engine, tick: int, rng: random.Random) -> None:
        if self.target == "ledger":
            engine.packets_delivered += self.skew
            return
        policy = _target_policy(engine, self.src, self.dst)
        groups = getattr(policy, "groups", None)
        if not groups:
            raise SimulationError(
                f"policy on {self.src!r}->{self.dst!r} has no token buckets "
                f"to corrupt"
            )
        key = rng.choice(sorted(groups, key=repr))
        groups[key].bucket.tokens = -abs(float(self.skew))


class FluidCounterCorruption:
    """Injector: drive a random slice of the fluid simulator's smoothed
    send rates (the MTD analogue) negative — a silent accounting bug the
    sanitizer's ``rate-nonnegative`` invariant must catch."""

    def __init__(self, fraction: float = 0.1, skew: float = 5.0) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ConfigError(
                f"corruption fraction must be in (0, 1], got {fraction}"
            )
        self.fraction = fraction
        self.skew = skew

    def __call__(self, sim, tick: int, rng: random.Random) -> None:
        n = max(1, int(sim.n_flows * self.fraction))
        victims = rng.sample(range(sim.n_flows), min(n, sim.n_flows))
        sim._rate_ewma[victims] = -abs(self.skew)


class FluidLinkDegrade:
    """Capacity degradation of one AS uplink in the fluid simulator.

    :meth:`down` scales ``scn.link_capacity[asn]`` by ``factor`` (a partial
    outage: 0 kills the uplink outright); :meth:`up` restores the original
    capacity.  Works on any :class:`~repro.inet.simulator.FluidSimulator`
    host.
    """

    def __init__(self, asn: int, factor: float = 0.0) -> None:
        if factor < 0:
            raise SimulationError(f"degrade factor must be >= 0, got {factor}")
        self.asn = asn
        self.factor = factor
        self._original: float = 0.0
        self._active = False

    def down(self, sim, tick: int, rng: random.Random) -> None:
        if not self._active:
            self._original = float(sim.scn.link_capacity[self.asn])
            self._active = True
        sim.scn.link_capacity[self.asn] = self._original * self.factor

    def up(self, sim, tick: int, rng: random.Random) -> None:
        if self._active:
            sim.scn.link_capacity[self.asn] = self._original
            self._active = False


class fluid_restart:
    """Injector: restart the fluid simulator's target-link defense (wipe
    rate EWMAs, conformance state and the aggregation plan; FLoc degrades
    to neutral admission for ``warmup_ticks``)."""

    def __init__(self, warmup_ticks: int = 50) -> None:
        self.warmup_ticks = warmup_ticks

    def __call__(self, sim, tick: int, rng: random.Random) -> None:
        sim.restart_defense(tick, warmup_ticks=self.warmup_ticks)
