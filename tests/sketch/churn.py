"""The churn flood the sketch-mode tests share.

The Fig. 5 tree at scale 0.03 with its CBR flood plus 48
:class:`PathChurnFloodSource` bots against a 64-path sketch-backed
router, and a digest over everything the router and the target monitor
hold afterwards.  Three bots in four re-handshake every 20 ticks over
150 identifiers: they hold a valid capability for each, so their
identifiers are tracked, evicted and — the space being small — revived,
and a 256-column sketch makes them collide.  The fourth keeps a stale
capability and churns every tick, so forged packets stay in the traffic;
those must cost the router a ``spoofed`` count and nothing else, which
:class:`PreVerified` states as an oracle.
"""

import hashlib

import numpy as np

from repro.core.capability import CapabilityIssuer
from repro.core.config import FLocConfig
from repro.core.router import FLocPolicy
from repro.net.packet import DATA
from repro.net.policy import LinkPolicy
from repro.traffic import PathChurnFloodSource
from repro.traffic.scenarios import build_tree_scenario


#: Short intervals, a fast conformance EWMA and a small |S|_max: attack
#: paths are convicted and aggregated by tick 175 and again after each
#: mid-run event, so group keys are ``AGG-*`` tuples as well as path ids.
#: (The short activity window ages the bots' first, pre-churn units out
#: of the attack paths' flow counts, which conviction is a ratio over.)
AGGREGATING = dict(
    s_max=10,
    measure_interval=25,
    aggregation_interval=50,
    beta=0.4,
    restart_warmup_ticks=50,
    flow_active_window=75,
)


class PreVerified(LinkPolicy):
    """Test-only oracle: a capability filter in front of a router.

    A DATA packet whose ``C0 || C1`` fails a memo-free check never
    reaches the wrapped :class:`FLocPolicy`: it is counted ``spoofed``
    there and its ``on_drop`` is swallowed.  Everything else delegates.
    A router that authenticates before it allocates or records anything
    behaves exactly like itself behind this filter.
    """

    def __init__(self, inner):
        self.inner = inner
        self._oracle = CapabilityIssuer(inner.cfg.secret, n_max=inner.cfg.n_max)
        self._refused = None  # the packet ``admit`` has just rejected

    def attach(self, link, engine):
        super().attach(link, engine)
        self.inner.attach(link, engine)

    def on_tick(self, tick):
        self.inner.on_tick(tick)

    def admit(self, pkt, tick):
        if pkt.kind == DATA:
            authentic = self._oracle.verify(
                pkt.capability, pkt.src_addr, pkt.dst_addr, pkt.path_id
            )
            self._oracle.clear()  # every check recomputes both halves
            if not authentic:
                self.inner.drop_stats["spoofed"] += 1
                self._refused = pkt
                return False
        return self.inner.admit(pkt, tick)

    def pending_drop_cause(self):
        if self._refused is not None:
            return "spoofed"
        return self.inner.pending_drop_cause()

    def on_drop(self, pkt, tick):
        if pkt is self._refused:
            self._refused = None
        else:
            self.inner.on_drop(pkt, tick)

    def restart(self, tick):
        self.inner.restart(tick)

    def corrupt_state(self, fraction, rng):
        self.inner.corrupt_state(fraction, rng)

    def jitter_clock(self, offset):
        self.inner.jitter_clock(offset)

    def __getattr__(self, name):
        # whoever holds the filter reads the router's measurements off it
        if "inner" not in self.__dict__:  # mid-unpickle or mid-copy
            raise AttributeError(name)
        return getattr(self.inner, name)


def build(pre_verified=False, **cfg):
    """``(engine, policy, monitor)``; ``cfg`` goes to :class:`FLocConfig`.
    ``pre_verified`` puts the router behind :class:`PreVerified`."""
    scenario = build_tree_scenario(
        scale_factor=0.03,
        attack_kind="cbr",
        attack_rate_mbps=4.0,
        seed=3,
        start_spread_seconds=0.5,
    )
    engine, topology = scenario.engine, scenario.topology
    rate = scenario.units.mbps_to_pkts_per_tick(2.0)
    leaf_of_as = {asn: leaf for leaf, asn in scenario.as_of_leaf.items()}
    start_rng = engine.spawn_rng("lock-churn-start")
    bot = 0
    for pid in scenario.attack_path_ids:
        leaf = leaf_of_as[pid[0]]
        for i in range(8):
            host = f"c_{pid[0]}_{i}"
            topology.add_duplex_link(host, leaf, capacity=None)
            flow = engine.open_flow(
                host, scenario.servers[0], pid, is_attack=True
            )
            rehandshake = bot % 4 != 3
            engine.add_source(
                PathChurnFloodSource(
                    flow,
                    rate,
                    churn_interval=20 if rehandshake else 1,
                    id_space=150,
                    rehandshake=rehandshake,
                    start_tick=start_rng.randrange(40),
                )
            )
            bot += 1
    cfg.setdefault("sketch_width", 256)
    policy = FLocPolicy(
        FLocConfig(state_backend="sketch", sketch_hot_paths=64, **cfg)
    )
    scenario.attach_policy(PreVerified(policy) if pre_verified else policy)
    monitor = scenario.add_target_monitor()
    return scenario.engine, policy, monitor


def sketch_cells(tier):
    """The nine cell arrays and the Bloom, in a fixed order."""
    values = (
        tier.lambda_sketch,
        tier.rtt_sketch,
        tier.conformance_sketch,
        tier.bucket_fill_sketch,
    )
    arrays = [a for s in values for a in (s._weight, s._wsum)]
    return arrays + [tier.unit_drop_sketch._cells, tier._seen_bits]


def assert_carried_equals_fresh(policy):
    """Every path/group entry carries exactly the hash positions its key
    derives right now; returns how many entries were checked."""
    tier = policy.sketch
    for pid, state in policy.paths.items():
        assert state.sketch_idx == tier.path_indices(pid)
    for key, group in policy.groups.items():
        assert group.key == key
        assert group.sketch_idx == tier.bucket_indices(key)
    return len(policy.paths) + len(policy.groups)


def state_digest(policy, monitor):
    h = hashlib.sha256()
    for cells in sketch_cells(policy.sketch):
        h.update(np.asarray(cells).tobytes())
    summary = (
        sorted(policy.sketch.stats().items()),
        sorted(policy.drop_stats.items()),
        sorted(policy.eviction_stats.items()),
        policy.tracked_paths_peak,
        policy.issuer.memoised_paths(),
        sorted(monitor.service_counts.items()),
        sorted(monitor.drop_counts.items()),
        sorted(map(repr, policy.groups)),
    )
    h.update(repr(summary).encode())
    return h.hexdigest()
