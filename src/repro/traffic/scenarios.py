"""Scenario builder for the paper's functional evaluation (Section VI).

The reference topology (paper Fig. 5) is a complete tree of routers with
height and degree three (27 leaf domains), a congested *target link* from
the tree root to the destination side, 30 legitimate TCP sources per leaf
domain, and 60 attack bots on each of 6 designated attack leaves (360 bots
total).  The target link is 500 Mbps.

Every leaf (and interior) router is an autonomous system; a flow's
domain-path identifier is the AS sequence from its leaf up to the root,
origin first, which is what the origin's BGP speaker would stamp
(Section III-A).

``scale_factor`` shrinks flow counts and the link capacity *together*, so
per-flow fair shares — and therefore window sizes, MTDs and all the
ratio-level results — are preserved while simulations run much faster.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError
from ..net.engine import Engine, FlowInfo, LinkMonitor
from ..net.source import TrafficSource
from ..net.topology import Topology
from ..tcp.source import TcpSource
from ..units import DEFAULT_SCALE, UnitScale
from .cbr import CbrSource
from .covert import CovertSource
from .shrew import ShrewSource

#: Node id of the tree root (the congested router R0).
ROOT = "root"
#: Node id of the destination-side hub; the target link is ROOT -> DST_HUB.
DST_HUB = "dsthub"


@dataclass
class TreeScenario:
    """A fully-built functional scenario, ready to attach a policy and run."""

    engine: Engine
    topology: Topology
    units: UnitScale
    capacity: float  # target-link capacity, packets per tick
    base_rtt_ticks: int  # propagation-only RTT host<->server
    path_ids: List[Tuple[int, ...]]  # all 27 leaf path identifiers
    attack_path_ids: List[Tuple[int, ...]]
    legit_flows: List[FlowInfo] = field(default_factory=list)
    attack_flows: List[FlowInfo] = field(default_factory=list)
    legit_sources: List[TrafficSource] = field(default_factory=list)
    attack_sources: List[TrafficSource] = field(default_factory=list)
    as_of_leaf: Dict[str, int] = field(default_factory=dict)
    servers: List[str] = field(default_factory=list)

    @property
    def target(self) -> Tuple[str, str]:
        """The (src, dst) node pair of the flooded link."""
        return (ROOT, DST_HUB)

    @property
    def legit_path_ids(self) -> List[Tuple[int, ...]]:
        """Path identifiers whose leaf hosts no attack bots."""
        attack = set(self.attack_path_ids)
        return [p for p in self.path_ids if p not in attack]

    def attach_policy(self, policy) -> None:
        """Install an admission policy on the target link."""
        self.topology.set_policy(ROOT, DST_HUB, policy)

    def add_target_monitor(
        self,
        start_seconds: float = 0.0,
        stop_seconds: Optional[float] = None,
    ) -> LinkMonitor:
        """Attach a measurement monitor to the target link."""
        start = self.units.seconds_to_ticks(start_seconds) if start_seconds else 0
        stop = (
            self.units.seconds_to_ticks(stop_seconds)
            if stop_seconds is not None
            else None
        )
        monitor = LinkMonitor(start_tick=start, stop_tick=stop)
        return self.engine.add_monitor(ROOT, DST_HUB, monitor)

    def run_seconds(self, seconds: float) -> None:
        """Advance the scenario's engine by sim-time seconds."""
        self.engine.run_seconds(seconds)


def _scaled(count: int, scale_factor: float) -> int:
    return max(1, round(count * scale_factor))


def build_tree_scenario(
    degree: int = 3,
    height: int = 3,
    legit_per_leaf: int = 30,
    attack_leaves: int = 6,
    bots_per_attack_leaf: int = 60,
    link_mbps: float = 500.0,
    scale_factor: float = 1.0,
    attack_kind: str = "cbr",
    attack_rate_mbps: float = 2.0,
    covert_fanout: int = 1,
    n_servers: int = 1,
    rolling_period_seconds: float = 2.0,
    seed: int = 0,
    legit_count_overrides: Optional[Dict[int, int]] = None,
    start_spread_seconds: float = 5.0,
    attack_start_seconds: float = 0.0,
    leaf_uplink_delays: Optional[Dict[int, int]] = None,
) -> TreeScenario:
    """Build the Section VI tree scenario.

    Parameters mirror the paper's setup; see module docstring.  Times
    convert to ticks at :data:`~repro.DEFAULT_SCALE.DEFAULT_SCALE`, and legitimate
    TCP flows are persistent.  Notable knobs:

    attack_kind:
        ``"tcp"`` (high-population TCP attack), ``"cbr"``, ``"shrew"``,
        ``"covert"``, ``"rolling"`` (a timed attack that cycles full-rate
        flooding between the contaminated domains to dodge installed
        filters — the Section II critique of remote-filter schemes), or
        ``"none"`` (no attackers at all).
    attack_rate_mbps:
        Per-bot rate: CBR rate, Shrew *peak* rate (on for a quarter of
        each base RTT), or covert per-flow rate.
    covert_fanout:
        Concurrent destinations per covert bot (paper sweeps 1..20).
    legit_count_overrides:
        Map leaf-index -> legitimate source count, for the Fig. 9
        legitimate-path-aggregation experiment (some domains get 15
        sources instead of 30).
    attack_start_seconds:
        Earliest tick (in seconds) at which attack sources begin; their
        start times spread over ``start_spread_seconds`` from there.
        History-based defenses (CDF-PSP) need an attack-free prefix to
        train on.
    leaf_uplink_delays:
        Map leaf-index -> uplink propagation delay in ticks (default 1),
        for heterogeneous-RTT scenarios; FLoc's per-path token-bucket
        parameters depend quadratically on the estimated RTT, so this is
        the knob that exercises the Section V-A estimation machinery.
    """
    if attack_kind not in {"tcp", "cbr", "shrew", "covert", "rolling", "none"}:
        raise ConfigError(f"unknown attack_kind {attack_kind!r}")
    if covert_fanout > max(1, n_servers) and attack_kind == "covert":
        n_servers = covert_fanout

    capacity = DEFAULT_SCALE.mbps_to_pkts_per_tick(link_mbps * scale_factor)
    topology = Topology()

    # --- router tree ---------------------------------------------------
    as_counter = itertools.count(1)
    as_of_node: Dict[str, int] = {ROOT: next(as_counter)}
    levels: List[List[str]] = [[ROOT]]
    for _ in range(height):
        level: List[str] = []
        for parent in levels[-1]:
            for child_index in range(degree):
                node = f"{parent}.{child_index}"
                as_of_node[node] = next(as_counter)
                topology.add_duplex_link(node, parent, capacity=None)
                level.append(node)
        levels.append(level)
    leaves = levels[-1]

    # --- target link and servers ----------------------------------------
    rtt_hops = 2 * (height + 2)  # host->leaf->..->root->hub->server, both ways
    buffer = max(64, int(capacity * rtt_hops))
    topology.add_duplex_link(ROOT, DST_HUB, capacity=capacity, buffer=buffer)
    servers = [f"srv{i}" for i in range(max(1, n_servers))]
    for server in servers:
        topology.add_duplex_link(DST_HUB, server, capacity=None)

    engine = Engine(topology, scale=DEFAULT_SCALE, seed=seed)
    rng = engine.spawn_rng("scenario")

    def path_id_of(leaf: str) -> Tuple[int, ...]:
        chain = [leaf]
        while chain[-1] != ROOT:
            chain.append(chain[-1].rsplit(".", 1)[0])
        return tuple(as_of_node[node] for node in chain)

    if leaf_uplink_delays:
        for leaf_index, delay in leaf_uplink_delays.items():
            leaf = leaves[leaf_index]
            parent = leaf.rsplit(".", 1)[0]
            topology.add_duplex_link(leaf, parent, capacity=None, delay=delay)

    path_ids = [path_id_of(leaf) for leaf in leaves]
    attack_leaf_step = max(1, len(leaves) // attack_leaves) if attack_leaves else 1
    attack_leaf_names = leaves[:: attack_leaf_step][:attack_leaves]
    attack_path_ids = [path_id_of(leaf) for leaf in attack_leaf_names]

    scenario = TreeScenario(
        engine=engine,
        topology=topology,
        units=DEFAULT_SCALE,
        capacity=capacity,
        base_rtt_ticks=rtt_hops,
        path_ids=path_ids,
        attack_path_ids=attack_path_ids,
        as_of_leaf={leaf: as_of_node[leaf] for leaf in leaves},
        servers=servers,
    )

    spread_ticks = max(1, DEFAULT_SCALE.seconds_to_ticks(start_spread_seconds))

    # --- legitimate sources ---------------------------------------------
    for leaf_index, leaf in enumerate(leaves):
        count = legit_per_leaf
        if legit_count_overrides and leaf_index in legit_count_overrides:
            count = legit_count_overrides[leaf_index]
        count = _scaled(count, scale_factor)
        pid = path_ids[leaf_index]
        for i in range(count):
            host = f"h_{leaf_index}_{i}"
            topology.add_duplex_link(host, leaf, capacity=None)
            server = servers[i % len(servers)]
            flow = engine.open_flow(host, server, pid, is_attack=False)
            source = TcpSource(flow, start_tick=rng.randrange(spread_ticks))
            engine.add_source(source)
            scenario.legit_flows.append(flow)
            scenario.legit_sources.append(source)

    # --- attack sources ---------------------------------------------------
    if attack_kind != "none":
        bots = _scaled(bots_per_attack_leaf, scale_factor)
        attack_rate = DEFAULT_SCALE.mbps_to_pkts_per_tick(attack_rate_mbps)
        attack_base_tick = (
            DEFAULT_SCALE.seconds_to_ticks(attack_start_seconds)
            if attack_start_seconds
            else 0
        )
        rtt = rtt_hops
        for leaf_index, leaf in enumerate(leaves):
            if leaf not in attack_leaf_names:
                continue
            pid = path_ids[leaf_index]
            for i in range(bots):
                host = f"b_{leaf_index}_{i}"
                topology.add_duplex_link(host, leaf, capacity=None)
                start = attack_base_tick + rng.randrange(spread_ticks)
                if attack_kind == "covert":
                    flows = [
                        engine.open_flow(host, servers[k % len(servers)], pid,
                                         is_attack=True)
                        for k in range(covert_fanout)
                    ]
                    source: TrafficSource = CovertSource(
                        flows, per_flow_rate=attack_rate, start_tick=start
                    )
                    scenario.attack_flows.extend(flows)
                else:
                    server = servers[i % len(servers)]
                    flow = engine.open_flow(host, server, pid, is_attack=True)
                    scenario.attack_flows.append(flow)
                    if attack_kind == "tcp":
                        source = TcpSource(flow, start_tick=start)
                    elif attack_kind == "cbr":
                        source = CbrSource(flow, rate=attack_rate, start_tick=start)
                    elif attack_kind == "rolling":
                        # the contaminated domains take turns flooding:
                        # domain k is active during slot k of every cycle
                        period = max(
                            len(attack_leaf_names),
                            DEFAULT_SCALE.seconds_to_ticks(rolling_period_seconds),
                        )
                        slot = max(1, period // len(attack_leaf_names))
                        turn = attack_leaf_names.index(leaf)
                        source = ShrewSource(
                            flow,
                            burst_rate=attack_rate,
                            period_ticks=period,
                            on_ticks=slot,
                            phase=turn * slot,
                            start_tick=start,
                        )
                    else:  # shrew
                        on_ticks = max(1, int(round(0.25 * rtt)))
                        source = ShrewSource(
                            flow,
                            burst_rate=attack_rate,
                            period_ticks=rtt,
                            on_ticks=on_ticks,
                            phase=0,  # coordinated bots share phase
                            start_tick=start,
                        )
                engine.add_source(source)
                scenario.attack_sources.append(source)

    return scenario
