"""Adaptive attack sources: validation, marked-detection, determinism."""

import pickle
import random

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.net.engine import Engine
from repro.net.topology import Topology
from repro.traffic.adaptive import (
    AdaptiveCbrSource,
    AdaptiveShrewSource,
    FluidRateRandomizer,
)
from repro.traffic.cbr import CbrSource


def throttled_engine(seed=9, capacity=1.0):
    """A bot behind a bottleneck so its ack ratio collapses quickly."""
    topo = Topology()
    topo.add_duplex_link("bot", "r0", capacity=None)
    topo.add_duplex_link("r0", "hub", capacity=capacity)
    topo.add_duplex_link("hub", "srv", capacity=None)
    return Engine(topo, seed=seed)


def adaptive_cbr(engine, mutations, **kwargs):
    flow = engine.open_flow("bot", "srv", path_id=(1,), is_attack=True)
    kwargs.setdefault("rate", 6.0)
    kwargs.setdefault("adapt_interval", 40)
    kwargs.setdefault("handshake", False)
    src = AdaptiveCbrSource(flow, mutations=mutations, **kwargs)
    engine.add_source(src)
    return src


class TestValidation:
    def test_unknown_cbr_mutation_rejected(self):
        engine = throttled_engine()
        flow = engine.open_flow("bot", "srv", path_id=(1,), is_attack=True)
        with pytest.raises(ConfigError):
            AdaptiveCbrSource(flow, rate=1.0, mutations=("rephase",))

    def test_unknown_shrew_mutation_rejected(self):
        engine = throttled_engine()
        flow = engine.open_flow("bot", "srv", path_id=(1,), is_attack=True)
        with pytest.raises(ConfigError):
            AdaptiveShrewSource(
                flow, burst_rate=1.0, period_ticks=10, on_ticks=2,
                mutations=("churn",),
            )

    def test_churn_requires_a_path_id_pool(self):
        engine = throttled_engine()
        flow = engine.open_flow("bot", "srv", path_id=(1,), is_attack=True)
        with pytest.raises(ConfigError):
            AdaptiveCbrSource(flow, rate=1.0, mutations=("churn",))

    def test_rate_bounds_must_be_positive_and_ordered(self):
        engine = throttled_engine()
        flow = engine.open_flow("bot", "srv", path_id=(1,), is_attack=True)
        for bounds in ((0.0, 1.0), (-1.0, 1.0), (2.0, 1.0)):
            with pytest.raises(ConfigError):
                AdaptiveCbrSource(
                    flow, rate=1.0, mutations=("rerandomize",),
                    rate_bounds=bounds,
                )

    def test_adapt_interval_and_loss_threshold_bounds(self):
        engine = throttled_engine()
        flow = engine.open_flow("bot", "srv", path_id=(1,), is_attack=True)
        with pytest.raises(ConfigError):
            AdaptiveCbrSource(flow, rate=1.0, adapt_interval=0)
        for threshold in (0.0, 1.5, -0.1):
            with pytest.raises(ConfigError):
                AdaptiveCbrSource(flow, rate=1.0, loss_threshold=threshold)

    def test_fluid_randomizer_parameter_bounds(self):
        with pytest.raises(ConfigError):
            FluidRateRandomizer(interval=0)
        for spread in (0.0, 1.0, 1.5):
            with pytest.raises(ConfigError):
                FluidRateRandomizer(spread=spread)


class TestAdaptation:
    def test_throttled_bot_rerandomizes_within_bounds(self):
        engine = throttled_engine()
        src = adaptive_cbr(
            engine, ("rerandomize",), rate_bounds=(2.0, 10.0)
        )
        engine.run(400)
        assert src.adaptations > 0
        assert 2.0 <= src.rate <= 10.0
        assert src.rate != 6.0

    def test_churn_rotates_through_the_pool(self):
        engine = throttled_engine()
        pool = ((1,), (7,), (9,))
        src = adaptive_cbr(engine, ("churn",), path_id_pool=pool)
        engine.run(400)
        assert src.adaptations > 0
        # the pool index advances once per adaptation, wrapping around
        assert src.flow.path_id == pool[src.adaptations % len(pool)]

    def test_unthrottled_bot_never_adapts(self):
        engine = throttled_engine(capacity=None)
        src = adaptive_cbr(engine, ("rerandomize",), rate=2.0)
        engine.run(400)
        assert src.adaptations == 0
        assert src.rate == 2.0

    def test_no_mutations_behaves_exactly_like_plain_cbr(self):
        adaptive_engine = throttled_engine(seed=4)
        src = adaptive_cbr(adaptive_engine, ())
        plain_engine = throttled_engine(seed=4)
        flow = plain_engine.open_flow(
            "bot", "srv", path_id=(1,), is_attack=True
        )
        plain = CbrSource(flow, rate=6.0, handshake=False)
        plain_engine.add_source(plain)
        adaptive_engine.run(300)
        plain_engine.run(300)
        assert src.packets_sent == plain.packets_sent
        assert src.adaptations == 0

    def test_shrew_rephases_when_throttled(self):
        engine = throttled_engine()
        flow = engine.open_flow("bot", "srv", path_id=(1,), is_attack=True)
        src = AdaptiveShrewSource(
            flow, burst_rate=8.0, period_ticks=20, on_ticks=5,
            mutations=("rephase", "rerandomize"), handshake=False,
        )
        engine.add_source(src)
        engine.run(400)
        assert src.adaptations > 0
        assert 0 <= src.phase < src.period_ticks
        lo, hi = src.rate_bounds
        assert lo <= src.burst_rate <= hi

    def test_adaptation_is_seed_deterministic(self):
        def run_once():
            engine = throttled_engine(seed=21)
            src = adaptive_cbr(engine, ("rerandomize",))
            engine.run(400)
            return (src.adaptations, src.rate, src.packets_sent)

        assert run_once() == run_once()

    def test_sources_are_picklable(self):
        engine = throttled_engine()
        src = adaptive_cbr(engine, ("rerandomize",))
        engine.run(200)
        clone = pickle.loads(pickle.dumps(src))
        assert clone.adaptations == src.adaptations
        assert clone.rate == src.rate


class _StubFluidSim:
    """Just enough FluidSimulator surface for the randomizer hook."""

    def __init__(self, n_flows=10, n_bots=4, base=2.0):
        self.n_flows = n_flows
        self.is_attack = np.zeros(n_flows, dtype=bool)
        self.is_attack[:n_bots] = True

        class _Scn:
            pass

        self.scn = _Scn()
        self.scn.attack_rate = base
        self.splits = []

    def spawn_rng(self, name):
        return random.Random(f"stub:{name}")

    def split(self, flows):
        self.splits.append(list(flows))


class TestFluidRateRandomizer:
    def test_aggregate_flood_is_preserved(self):
        sim = _StubFluidSim(n_bots=4, base=2.0)
        hook = FluidRateRandomizer(interval=10, spread=0.5)
        hook(sim, 0)
        assert hook.rerolls == 1
        rates = sim.scn.attack_rate
        assert rates.shape == (sim.n_flows,)
        assert rates[sim.is_attack].sum() == pytest.approx(4 * 2.0)
        assert not np.allclose(rates[sim.is_attack], 2.0)
        assert np.allclose(rates[~sim.is_attack], 2.0)
        # the bots, and only they, became classes of their own first
        assert sim.splits == [[0, 1, 2, 3]]

    def test_only_fires_on_the_interval(self):
        sim = _StubFluidSim()
        hook = FluidRateRandomizer(interval=10, spread=0.5)
        for tick in range(25):
            hook(sim, tick)
        assert hook.rerolls == 3  # ticks 0, 10, 20

    def test_no_bots_is_a_no_op(self):
        sim = _StubFluidSim(n_bots=0)
        hook = FluidRateRandomizer(interval=5, spread=0.3)
        hook(sim, 0)
        assert hook.rerolls == 0
        assert sim.scn.attack_rate == 2.0

    def test_rerolls_are_deterministic(self):
        def run_once():
            sim = _StubFluidSim()
            hook = FluidRateRandomizer(interval=10, spread=0.5)
            for tick in range(40):
                hook(sim, tick)
            return sim.scn.attack_rate.tolist()

        assert run_once() == run_once()

    def test_hook_is_picklable(self):
        hook = FluidRateRandomizer(interval=10, spread=0.5)
        hook(_StubFluidSim(), 0)
        clone = pickle.loads(pickle.dumps(hook))
        assert clone.rerolls == hook.rerolls
