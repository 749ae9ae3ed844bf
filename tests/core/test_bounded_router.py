"""Bounded router state: LRU eviction, collateral release, sketch tier.

The exact-mode regression locks at the bottom pin chaos run digests so
the bounded-state machinery provably stays out of the default path:
``state_backend="exact"`` with no path limit must remain byte-identical
to the seed behaviour.
"""

import random

import pytest

from repro.core.config import FLocConfig
from repro.core.router import STATE_BOUNDS, FLocPolicy
from repro.net.engine import Engine
from repro.net.packet import DATA, SYN, Packet
from repro.net.topology import Topology
from repro.traffic import PathChurnFloodSource
from repro.traffic.scenarios import build_tree_scenario


def attached_policy(cfg):
    """A policy attached to a minimal one-link engine (no traffic)."""
    topo = Topology()
    topo.add_duplex_link("a", "b", capacity=10.0, buffer=50)
    engine = Engine(topo, seed=1)
    policy = FLocPolicy(cfg)
    policy.attach(topo.link("a", "b"), engine)
    return policy


def touch(policy, pid, tick):
    state = policy._path_state(pid, tick)
    state.last_arrival = tick
    return state


class TestLruEviction:
    def test_limit_enforced(self):
        policy = attached_policy(FLocConfig(max_tracked_paths=3))
        for i in range(10):
            touch(policy, (i,), tick=i)
        assert len(policy.paths) == 3
        assert policy.tracked_paths_peak == 3

    def test_least_recently_touched_is_victim(self):
        policy = attached_policy(FLocConfig(max_tracked_paths=3))
        for i in range(3):
            touch(policy, (i,), tick=i)
        # re-touch path 0 so path 1 becomes the LRU victim
        touch(policy, (0,), tick=10)
        touch(policy, (3,), tick=11)
        assert set(policy.paths) == {(0,), (2,), (3,)}

    def test_eviction_counted_by_cause(self):
        policy = attached_policy(FLocConfig(max_tracked_paths=2))
        for i in range(5):
            touch(policy, (i,), tick=i)
        assert policy.eviction_stats["memory-pressure"] == 3
        assert policy.eviction_stats["restart"] == 0

    def test_unbounded_default_never_evicts(self):
        policy = attached_policy(FLocConfig())
        for i in range(200):
            touch(policy, (i,), tick=i)
        assert len(policy.paths) == 200
        assert policy.eviction_stats["memory-pressure"] == 0
        assert not policy._lru  # LRU index only maintained under a limit

    def test_restart_counts_lost_paths(self):
        policy = attached_policy(FLocConfig(max_tracked_paths=8))
        for i in range(5):
            touch(policy, (i,), tick=i)
        policy.restart(tick=100)
        assert policy.eviction_stats["restart"] == 5
        assert not policy.paths and not policy._lru


class TestCollateralRelease:
    def test_eviction_releases_all_per_path_state(self):
        policy = attached_policy(FLocConfig(max_tracked_paths=2))
        state = touch(policy, (0,), tick=0)
        unit = ("unit-0", 0, (0,))
        state.flows[unit] = 0
        policy.tracker.record_drop(unit, tick=1)
        policy._blocked[unit] = 500
        policy.conformance.update((0,), 4, 2)
        policy._group_state((0,), tick=1)
        group_key = policy.plan.group((0,))
        assert (0,) in policy.groups[group_key].members

        touch(policy, (1,), tick=2)
        touch(policy, (2,), tick=3)  # evicts (0,)

        assert (0,) not in policy.paths
        assert policy.tracker.drop_count(unit) == 0
        assert policy.tracker.tracked_units() == 0
        assert unit not in policy._blocked
        assert policy.conformance.known_value((0,)) is None
        assert group_key not in policy.groups

    def test_regeneration_matches_partial_restart(self):
        # an exact-mode evicted path that returns starts cold, exactly
        # like a fresh path after a partial restart
        policy = attached_policy(FLocConfig(max_tracked_paths=2))
        state = touch(policy, (0,), tick=0)
        state.lambda_rate = 9.0
        state.rtt_ewma = 33.0
        touch(policy, (1,), tick=1)
        touch(policy, (2,), tick=2)  # evicts (0,)
        reborn = touch(policy, (0,), tick=3)
        assert reborn.lambda_rate == 0.0
        assert reborn.rtt_ewma == policy._initial_rtt


class TestSketchTier:
    def cfg(self, hot=2, width=4096):
        return FLocConfig(
            state_backend="sketch", sketch_hot_paths=hot, sketch_width=width
        )

    def test_sketch_backend_allocates_tier(self):
        policy = attached_policy(self.cfg())
        assert policy.sketch is not None
        assert policy.sketch.memory_bytes > 0

    def test_hot_tier_limit_is_sketch_hot_paths(self):
        policy = attached_policy(self.cfg(hot=3))
        for i in range(10):
            touch(policy, (i,), tick=i)
        assert len(policy.paths) == 3

    def test_revival_seeds_from_folded_history(self):
        policy = attached_policy(self.cfg())
        state = touch(policy, (0,), tick=0)
        state.lambda_rate = 6.0
        state.rtt_ewma = 28.0
        policy.conformance.update((0,), 10, 9)
        conf_at_eviction = policy.conformance.known_value((0,))
        touch(policy, (1,), tick=1)
        touch(policy, (2,), tick=2)  # folds and evicts (0,)
        reborn = touch(policy, (0,), tick=3)
        assert reborn.lambda_rate == pytest.approx(6.0)
        assert reborn.rtt_ewma == pytest.approx(28.0)
        assert policy.conformance.known_value((0,)) == pytest.approx(
            conf_at_eviction
        )

    def test_never_seen_path_starts_cold(self):
        policy = attached_policy(self.cfg())
        state = touch(policy, (0,), tick=0)
        assert state.lambda_rate == 0.0
        assert policy.sketch.revivals_total == 0

    def test_restart_wipes_sketch_tier(self):
        policy = attached_policy(self.cfg())
        state = touch(policy, (0,), tick=0)
        state.lambda_rate = 6.0
        touch(policy, (1,), tick=1)
        touch(policy, (2,), tick=2)
        policy.restart(tick=50)
        reborn = touch(policy, (0,), tick=60)
        assert reborn.lambda_rate == 0.0  # volatile memory: no revival

    def test_snapshot_roundtrip_preserves_sketch(self):
        policy = attached_policy(self.cfg())
        state = touch(policy, (0,), tick=0)
        state.lambda_rate = 6.0
        touch(policy, (1,), tick=1)
        touch(policy, (2,), tick=2)
        snap = policy.snapshot()
        other = attached_policy(self.cfg())
        other.restore(snap)
        assert list(other._lru) == list(policy._lru)
        reborn = other._path_state((0,), 3)
        assert reborn.lambda_rate == pytest.approx(6.0)


def handshake(policy, src, pid, tick, dst="srv"):
    """Pass a SYN through the policy; returns the stamped capability."""
    syn = Packet(pid[0], SYN, 0, pid, ("a", "b"), src, dst, tick)
    assert policy.admit(syn, tick)
    return syn.capability


def data(src, pid, tick, capability, dst="srv"):
    return Packet(pid[0], DATA, 1, pid, ("a", "b"), src, dst, tick, capability)


def admit(policy, pkt, tick):
    """The engine's admit/on_drop pair; returns the decision."""
    ok = policy.admit(pkt, tick)
    if not ok:
        policy.on_drop(pkt, tick)
    return ok


class TestCapabilityMemo:
    """The per-flow capability memo: never weaker than recomputing, and
    never larger than the tracked path set."""

    def test_forged_capability_on_memoised_flow_is_spoofed(self):
        policy = attached_policy(FLocConfig())
        cap = handshake(policy, "h", (1, 9), tick=0)
        assert admit(policy, data("h", (1, 9), 1, cap), 1)  # memoised now
        forged = bytes([cap[0] ^ 1]) + cap[1:]
        for bad in (forged, b"\x00" * 16, cap[:-1], None):
            assert not admit(policy, data("h", (1, 9), 2, bad), 2)
        assert policy.drop_stats["spoofed"] == 4
        # a capability is bound to its flow, memoised neighbours or not
        other = handshake(policy, "g", (1, 9), tick=2)
        assert not admit(policy, data("h", (1, 9), 3, other), 3)
        assert admit(policy, data("h", (1, 9), 3, cap), 3)

    def test_capability_issued_before_restart_still_verifies(self):
        policy = attached_policy(FLocConfig())
        cap = handshake(policy, "h", (1, 9), tick=0)
        policy.restart(tick=10)
        assert policy.issuer.memoised_paths() == 0
        assert admit(policy, data("h", (1, 9), 11, cap), 11)
        assert policy.drop_stats["spoofed"] == 0

    @pytest.mark.parametrize(
        "cfg",
        [
            FLocConfig(max_tracked_paths=3),
            FLocConfig(state_backend="sketch", sketch_hot_paths=3),
        ],
        ids=["lru", "sketch"],
    )
    def test_memo_bounded_by_tracked_paths_under_eviction(self, cfg):
        policy = attached_policy(cfg)
        for i in range(40):
            cap = handshake(policy, f"h{i}", (i, 9), tick=i)
            admit(policy, data(f"h{i}", (i, 9), i, cap), i)
            # a stale capability is refused before it can allocate
            admit(policy, data(f"h{i}", (100 + i, 9), i, cap), i)
            assert (100 + i, 9) not in policy.paths
            assert policy.issuer.memoised_paths() <= len(policy.paths) <= 3

    def test_memo_released_with_dead_paths(self):
        policy = attached_policy(FLocConfig())
        for i in range(5):
            cap = handshake(policy, f"h{i}", (i, 9), tick=0)
            admit(policy, data(f"h{i}", (i, 9), 1, cap), 1)
        assert policy.issuer.memoised_paths() == 5
        policy._refresh(tick=1 + 2 * policy.cfg.flow_active_window)
        assert not policy.paths
        assert policy.issuer.memoised_paths() == 0

    def test_memo_released_by_corrupt_state(self):
        policy = attached_policy(FLocConfig())
        for i in range(20):
            handshake(policy, f"h{i}", (i, 9), tick=0)
        policy.corrupt_state(0.5, random.Random(4))
        assert 0 < len(policy.paths) < 20
        assert policy.issuer.memoised_paths() == len(policy.paths)

    def test_restore_admits_identically(self):
        policy = attached_policy(FLocConfig(max_tracked_paths=4))
        caps = {
            i: handshake(policy, f"h{i}", (i, 9), tick=0) for i in range(4)
        }
        snap = policy.snapshot()

        def replay():
            out = []
            for tick in range(1, 30):
                i = tick % 6  # flows 4 and 5 were never issued anything
                cap = caps.get(i, caps[0])
                out.append(admit(policy, data(f"h{i}", (i, 9), tick, cap), tick))
            return out, dict(policy.drop_stats)

        first = replay()
        assert True in first[0] and False in first[0]
        policy.restore(snap)
        assert policy.issuer.memoised_paths() <= len(policy.paths)
        assert replay() == first

    def test_capability_pairs_computed_once_per_flow(self, monkeypatch):
        from repro.core import capability

        policy = attached_policy(FLocConfig())
        calls = []
        real_new = capability.hmac.new

        def counting_new(*args, **kwargs):
            calls.append(args)
            return real_new(*args, **kwargs)

        monkeypatch.setattr(capability.hmac, "new", counting_new)
        flows = [("h0", (0, 9)), ("h1", (1, 9)), ("h2", (1, 9))]
        caps = [handshake(policy, src, pid, tick=0) for src, pid in flows]
        for n in range(1000):
            (src, pid), cap = flows[n % 3], caps[n % 3]
            assert admit(policy, data(src, pid, 1 + n, cap), 1 + n)
        assert len(calls) <= 2 * len(flows)  # C0 and C1, once per flow


class TestForgedPacketsCostNothing:
    """A packet that fails ``C0 || C1`` buys a ``spoofed`` count and
    nothing else: no path, no memo entry, no eviction, no drop record
    under the unit it names."""

    def test_forged_flood_cannot_frame_the_flow_it_names(self):
        cfg = FLocConfig()
        policy = attached_policy(cfg)
        pid, unit = (1, 9), ("h", policy.issuer.fanout_bucket("srv"), (1, 9))
        cap = handshake(policy, "h", pid, tick=0)
        assert admit(policy, data("h", pid, 1, cap), 1)
        assert unit in policy.paths[pid].flows
        forged = bytes([cap[0] ^ 1]) + cap[1:]
        # ten forged packets a tick in the victim's name, across three
        # measurement refreshes: enough drops to convict and block it
        for tick in range(2, 3 * cfg.measure_interval + 2):
            policy.on_tick(tick)
            for _ in range(10):
                assert not admit(policy, data("h", pid, tick, forged), tick)
            assert admit(policy, data("h", pid, tick, cap), tick)
        assert policy.drop_stats["spoofed"] == 10 * 3 * cfg.measure_interval
        assert policy.tracker.drop_count(unit) == 0
        assert policy.tracker.tracked_units() == 0
        group = policy.groups[policy.plan.group(pid)]
        assert group.interval_drops == 0 and group.drop_rate_ewma == 0.0
        assert unit not in policy.paths[pid].attack_flows
        assert unit not in policy._blocked
        assert policy.conformance.value(pid) == 1.0

    @pytest.mark.parametrize(
        "cfg",
        [
            FLocConfig(max_tracked_paths=3),
            FLocConfig(state_backend="sketch", sketch_hot_paths=3),
        ],
        ids=["lru", "sketch"],
    )
    def test_forged_identifiers_evict_nobody(self, cfg):
        policy = attached_policy(cfg)
        caps = {
            i: handshake(policy, f"h{i}", (i, 9), tick=0) for i in range(3)
        }
        before = (list(policy._lru), policy.state_census())
        for n in range(200):
            stale = caps[n % 3]
            for bad in (stale, None, b"\x00" * 16, stale[:-1]):
                assert not admit(policy, data("h0", (1000 + n, 9), 1, bad), 1)
        assert (list(policy._lru), policy.state_census()) == before
        assert policy.eviction_stats["memory-pressure"] == 0
        assert policy.drop_stats["spoofed"] == 800
        if policy.sketch is not None:
            assert policy.sketch.folds_total == 0


BUDGET = 64

#: regime -> (churn_interval, rehandshake).  ``stale``: the bot keeps
#: its first capability, so every packet is forged on a fresh
#: identifier.  ``late-synack``: the handshake takes longer than eight
#: ticks, so the SYN-ACK for identifier A arrives once the bot has moved
#: on (and sent a SYN) to B — forged packets on a *tracked* identifier.
#: ``syn-only``: a fresh SYN every tick and never any data — the vector
#: that is paid for, one handshake per identifier.
CHURN_REGIMES = {
    "stale": (1, False),
    "late-synack": (8, True),
    "syn-only": (1, True),
}


def churn_scenario(regime, backend):
    """The Fig. 5 tree at scale 0.03, legitimate TCP only, plus two
    :class:`PathChurnFloodSource` bots per attack leaf in one regime,
    against a 64-path budget on either backend."""
    interval, rehandshake = CHURN_REGIMES[regime]
    scenario = build_tree_scenario(
        scale_factor=0.03, attack_kind="none", seed=3
    )
    engine, topology = scenario.engine, scenario.topology
    rate = scenario.units.mbps_to_pkts_per_tick(2.0)
    leaf_of_as = {asn: leaf for leaf, asn in scenario.as_of_leaf.items()}
    start_rng = engine.spawn_rng("census-start")
    for pid in scenario.attack_path_ids:
        for i in range(2):
            host = f"c_{pid[0]}_{i}"
            topology.add_duplex_link(host, leaf_of_as[pid[0]], capacity=None)
            flow = engine.open_flow(
                host, scenario.servers[0], pid, is_attack=True
            )
            engine.add_source(
                PathChurnFloodSource(
                    flow,
                    rate,
                    churn_interval=interval,
                    id_space=10**6,
                    rehandshake=rehandshake,
                    start_tick=start_rng.randrange(40),
                )
            )
    if backend == "sketch":
        cfg = FLocConfig(state_backend="sketch", sketch_hot_paths=BUDGET)
    else:
        cfg = FLocConfig(max_tracked_paths=BUDGET)
    policy = FLocPolicy(cfg)
    scenario.attach_policy(policy)
    return engine, policy


class TestContainerBounds:
    """Router memory is a function of the path budget, not of attacker
    churn x the drop-record horizon: every per-identifier container
    stays within its :data:`STATE_BOUNDS` multiple in every regime."""

    @pytest.mark.parametrize("backend", ["sketch", "exact"])
    @pytest.mark.parametrize("regime", sorted(CHURN_REGIMES))
    def test_every_container_within_its_multiple(self, regime, backend):
        engine, policy = churn_scenario(regime, backend)
        interval = policy.cfg.measure_interval
        units_at = {}
        while engine.tick < 1500:
            engine.run(interval)
            census = policy.state_census()
            assert sorted(census) == sorted(STATE_BOUNDS)
            over = {
                name: size
                for name, size in census.items()
                if size > STATE_BOUNDS[name] * BUDGET
            }
            assert not over, f"tick {engine.tick}: {over}"
            units_at[engine.tick] = census["tracker_units"]
        for name, peak in policy.state_peaks.items():
            assert peak <= STATE_BOUNDS[name] * BUDGET, name
        # flat, not a ramp towards churn rate x the 2,000-tick horizon
        assert units_at[1500] <= units_at[500] + BUDGET // 4
        # each regime is what it says it is
        spoofed = policy.drop_stats["spoofed"]
        evictions = policy.eviction_stats["memory-pressure"]
        if regime == "stale":
            assert spoofed > 10_000 and evictions == 0
        elif regime == "late-synack":
            assert spoofed > 5_000 and evictions > 1_000
        else:
            assert spoofed == 0 and evictions > 10_000
        assert policy.tracked_paths_peak <= BUDGET


class TestExactModeRegressionLock:
    # digests computed at the seed commit (pre-bounded-state code); the
    # default exact backend must keep producing them byte-identically
    PINNED = {
        0: "02c8e6a1ac9370085fb7b8feb96dad9486533d4d5980a4bf4feb38e93262ea19",
        1: "73a0d070149ba1202c69ee9e15f47b72635f0218af40ad7e1612f4eebd7c4373",
    }

    @pytest.mark.parametrize("index", sorted(PINNED))
    def test_packet_campaign_digest_unchanged(self, index):
        from repro.chaos.campaign import execute_campaign
        from repro.chaos.spec import sample_campaign

        spec = sample_campaign(7, index, simulator="packet")
        assert spec.state_backend == "exact"
        assert execute_campaign(spec).digest == self.PINNED[index]
