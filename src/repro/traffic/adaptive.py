"""Adaptive attack sources: bots that react to being throttled.

The paper's Section IV-B argues MTD-based identification is
*strategy-independent*: an attack flow's drop rate is proportional to its
send rate no matter how the rate is shaped in time, so no re-timing or
re-randomization strategy moves its MTD back above the reference.  The
sources here are the adversaries that claim is tested against by the
chaos-campaign engine (:mod:`repro.chaos`):

* :class:`AdaptiveShrewSource` — a Shrew burster that *re-phases* its
  bursts (and optionally re-randomizes its burst rate) once its goodput
  collapses, dodging any detector synchronised to its previous phase;
* :class:`AdaptiveCbrSource` — a flooding bot that re-randomizes its send
  rate or churns its path identifier once the defense marks it;
* :class:`FluidRateRandomizer` — the fluid-simulator analogue: a tick
  hook that periodically re-draws every bot's send rate around the same
  mean, so the aggregate flood is unchanged while every per-flow rate
  signature keeps shifting.

A bot cannot read the router's flag table; it infers "marked" from the
only signal it has — its own acknowledgement ratio.  When fewer than
``loss_threshold`` of the packets sent in the last adaptation window were
acknowledged, the bot assumes the defense found it and mutates.

Every mutation is gated by a *mutation name* carried in the source's
``mutations`` tuple, so a chaos campaign (and its shrinker) can switch
individual behaviours off without replacing the source.  All randomness
flows through an RNG derived from the host simulator's master seed
(``engine.spawn_rng``), so a run with adaptive attackers replays
bit-identically from its seed.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..net.engine import Engine, FlowInfo
from ..net.packet import Packet
from .cbr import CbrSource
from .shrew import ShrewSource

#: Mutation names understood by :class:`AdaptiveCbrSource`.
CBR_MUTATIONS = ("rerandomize", "churn")
#: Mutation names understood by :class:`AdaptiveShrewSource`.
SHREW_MUTATIONS = ("rephase", "rerandomize")


def _check_mutations(mutations: Sequence[str], allowed: Tuple[str, ...]) -> Tuple[str, ...]:
    out = tuple(mutations)
    for name in out:
        if name not in allowed:
            raise ConfigError(
                f"unknown mutation {name!r}; expected a subset of {allowed}"
            )
    return out


class _AdaptationMixin:
    """Shared marked-detection state: ack-ratio over adaptation windows.

    Listed before the source class it extends, so its ``on_tick`` and
    ``on_ack`` wrap the source's own.
    """

    flow: FlowInfo
    packets_sent: int
    mutations: Tuple[str, ...]
    rate_bounds: Tuple[float, float]
    adapt_interval: int
    loss_threshold: float
    adaptations: int
    _rng: Optional[random.Random]
    _window_sent: int
    _window_acked: int
    _next_adapt: int

    def _set_rate_bounds(
        self, rate_bounds: Optional[Tuple[float, float]], rate: float
    ) -> None:
        if rate_bounds is None:
            rate_bounds = (0.5 * rate, 2.0 * rate)
        lo, hi = rate_bounds
        if not 0.0 < lo <= hi:
            raise ConfigError(
                f"rate_bounds must satisfy 0 < lo <= hi, got {rate_bounds}"
            )
        self.rate_bounds = (float(lo), float(hi))

    def _init_adaptation(
        self, adapt_interval: int, loss_threshold: float
    ) -> None:
        if adapt_interval < 1:
            raise ConfigError(
                f"adapt_interval must be >= 1, got {adapt_interval}"
            )
        if not 0.0 < loss_threshold <= 1.0:
            raise ConfigError(
                f"loss_threshold must be in (0, 1], got {loss_threshold}"
            )
        self.adapt_interval = adapt_interval
        self.loss_threshold = loss_threshold
        self.adaptations = 0
        self._rng = None
        self._window_sent = 0
        self._window_acked = 0
        self._next_adapt = adapt_interval

    def on_tick(self, engine: Engine, tick: int) -> None:
        if self.mutations and tick >= self._next_adapt:
            self._maybe_adapt(engine, tick)
        before = self.packets_sent
        super().on_tick(engine, tick)
        self._window_sent += self.packets_sent - before

    def on_ack(
        self, engine: Engine, flow: FlowInfo, pkt: Packet, tick: int
    ) -> None:
        self._window_acked += 1

    def _maybe_adapt(self, engine: Engine, tick: int) -> None:
        if self._rng is None:
            self._rng = engine.spawn_rng(f"adaptive-{self.flow.flow_id}")
        if self._marked():
            self._mutate(self._rng)
            self.adaptations += 1
        self._window_sent = 0
        self._window_acked = 0
        self._next_adapt = tick + self.adapt_interval

    def _marked(self) -> bool:
        """The bot's own view of being throttled: ack ratio collapsed."""
        if self._window_sent < 5:
            return False
        return self._window_acked < self.loss_threshold * self._window_sent


class AdaptiveCbrSource(_AdaptationMixin, CbrSource):
    """A flooding bot that mutates once its goodput collapses.

    Mutations (any subset of :data:`CBR_MUTATIONS`):

    * ``"rerandomize"`` — re-draw the send rate uniformly from
      ``rate_bounds``; the MTD-evasion strategy of Section IV-B's
      strategy-independence claim.
    * ``"churn"`` — stamp subsequent packets with the next identifier
      from ``path_id_pool``, shedding the per-path drop history FLoc
      accumulated against the old identifier.

    With an empty ``mutations`` tuple this is exactly a
    :class:`~repro.traffic.cbr.CbrSource`.
    """

    def __init__(
        self,
        flow: FlowInfo,
        rate: float,
        mutations: Sequence[str] = (),
        rate_bounds: Optional[Tuple[float, float]] = None,
        path_id_pool: Sequence[Tuple[int, ...]] = (),
        adapt_interval: int = 50,
        loss_threshold: float = 0.5,
        start_tick: int = 0,
        stop_tick: Optional[int] = None,
        handshake: bool = True,
    ) -> None:
        super().__init__(
            flow,
            rate=rate,
            start_tick=start_tick,
            stop_tick=stop_tick,
            handshake=handshake,
        )
        self.mutations = _check_mutations(mutations, CBR_MUTATIONS)
        self._set_rate_bounds(rate_bounds, rate)
        self.path_id_pool = tuple(tuple(pid) for pid in path_id_pool)
        if "churn" in self.mutations and not self.path_id_pool:
            raise ConfigError(
                "the 'churn' mutation needs a non-empty path_id_pool"
            )
        self._pool_index = 0
        self._init_adaptation(adapt_interval, loss_threshold)

    def _mutate(self, rng: random.Random) -> None:
        if "rerandomize" in self.mutations:
            lo, hi = self.rate_bounds
            self.rate = rng.uniform(lo, hi)
        if "churn" in self.mutations:
            self._pool_index = (self._pool_index + 1) % len(
                self.path_id_pool
            )
            self.flow.path_id = self.path_id_pool[self._pool_index]


class AdaptiveShrewSource(_AdaptationMixin, ShrewSource):
    """A Shrew burster that re-times itself once throttled.

    Mutations (any subset of :data:`SHREW_MUTATIONS`):

    * ``"rephase"`` — move the burst to a random offset within the cycle,
      breaking any detector synchronised to the old phase;
    * ``"rerandomize"`` — re-draw the burst rate from ``rate_bounds``,
      half to twice ``burst_rate``.

    Adaptation is evaluated once per cycle (``period_ticks``), on the
    bot's own ack-ratio signal (marked below half its packets acked),
    like :class:`AdaptiveCbrSource`.
    """

    def __init__(
        self,
        flow: FlowInfo,
        burst_rate: float,
        period_ticks: int,
        on_ticks: int,
        mutations: Sequence[str] = (),
        phase: int = 0,
        handshake: bool = True,
    ) -> None:
        super().__init__(
            flow,
            burst_rate=burst_rate,
            period_ticks=period_ticks,
            on_ticks=on_ticks,
            phase=phase,
            handshake=handshake,
        )
        self.mutations = _check_mutations(mutations, SHREW_MUTATIONS)
        self._set_rate_bounds(None, burst_rate)
        self._init_adaptation(period_ticks, 0.5)

    def _mutate(self, rng: random.Random) -> None:
        if "rephase" in self.mutations:
            self.phase = rng.randrange(self.period_ticks)
        if "rerandomize" in self.mutations:
            lo, hi = self.rate_bounds
            self.burst_rate = rng.uniform(lo, hi)


class FluidRateRandomizer:
    """Fluid-level MTD evasion: periodic per-bot rate re-randomization.

    Installed as a tick hook on a
    :class:`~repro.inet.simulator.FluidSimulator`, every ``interval``
    ticks it re-draws each bot's send rate as ``base * factor`` with
    ``factor`` uniform in ``[1 - spread, 1 + spread]``, then rescales so
    the *aggregate* attack rate equals the scenario's original flood —
    the adversary sheds its per-flow rate signature without giving up
    attack volume.  Legitimate flows are untouched (the per-flow rate
    array only reads attack entries for flagged-as-attack flows).  The
    bots are split into singleton classes first
    (:meth:`~repro.inet.simulator.FluidSimulator.split`), since members
    of one class no longer send alike.

    Plain picklable object; the RNG is derived lazily from the host
    simulator's master seed.
    """

    def __init__(self, interval: int = 50, spread: float = 0.5) -> None:
        if interval < 1:
            raise ConfigError(f"interval must be >= 1, got {interval}")
        if not 0.0 < spread < 1.0:
            raise ConfigError(f"spread must be in (0, 1), got {spread}")
        self.interval = interval
        self.spread = spread
        self.rerolls = 0
        self._rng: Optional[np.random.Generator] = None
        self._base_rate: Optional[float] = None

    def __call__(self, sim, tick: int) -> None:
        if tick % self.interval != 0:
            return
        if self._rng is None:
            seed_rng = sim.spawn_rng("adaptive-fluid")
            self._rng = np.random.default_rng(seed_rng.randrange(2**63))
        if self._base_rate is None:
            # scn.attack_rate starts as a scalar; remember the mean flood
            self._base_rate = float(np.mean(sim.scn.attack_rate))
        n_bots = int(sim.is_attack.sum())
        if n_bots == 0:
            return
        factors = self._rng.uniform(
            1.0 - self.spread, 1.0 + self.spread, size=n_bots
        )
        factors *= n_bots / factors.sum()  # aggregate flood unchanged
        rates = np.full(sim.n_flows, self._base_rate, dtype=np.float64)
        rates[sim.is_attack] = self._base_rate * factors
        sim.split(np.flatnonzero(sim.is_attack))
        sim.scn.attack_rate = rates
        self.rerolls += 1
