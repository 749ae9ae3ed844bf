"""Internet-scale scenario assembly (paper Section VII-A).

A scenario combines a skitter-like route tree, a CBL-like bot placement,
and population-proportional legitimate-source placement into flow tables
ready for the fluid simulator:

* **localized** attacks: bots in 100 ASes (paper Fig. 11),
* **dispersed** attacks: bots in 300 ASes (paper Fig. 12),
* **separated**: no intentional placement of legitimate sources inside
  attack ASes (the paper's final experiment).

Link capacities: the target link is the bottleneck (the paper uses 16,000
packets/tick ~ 40 Gbps at 5 ms ticks); interior links are provisioned
per-subscriber — ``headroom x legit_rate`` per host (bots are subscribers
too) — so most attack traffic reaches the target while the uplinks of
heavily contaminated subtrees clog, the effect the paper notes ("high
priority attack packets from highly contaminated ASs are dropped on the
way to the target as they clog some other links").
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..errors import ConfigError
from .botlist import place_bots, place_legitimate
from .skitter import SkitterLikeMap, generate_route_tree

PLACEMENTS = ("localized", "dispersed", "separated")


@dataclass
class InternetScenario:
    """Flow tables and link arrays for one Internet-scale simulation."""

    topology: SkitterLikeMap
    placement: str
    target_capacity: float  # packets per tick at the flooded link
    # links: index 0 is the target link; link i>0 carries AS i -> parent.
    # A capacity of 0 means "no limit": the fluid survival pass never
    # clogs such a link (a dead link has a tiny positive capacity)
    link_capacity: np.ndarray
    # flows
    flow_origin_as: np.ndarray  # int, per flow
    flow_is_attack: np.ndarray  # bool, per flow
    flow_links: List[np.ndarray] = field(default_factory=list)  # link ids per flow
    attack_ases: List[int] = field(default_factory=list)
    legit_rate: float = 0.5  # max packets/tick per legitimate flow (cap)
    attack_rate: float = 1.0  # packets/tick per bot

    @property
    def n_flows(self) -> int:
        return len(self.flow_origin_as)

    @property
    def n_links(self) -> int:
        return len(self.link_capacity)

    def categories(self) -> np.ndarray:
        """0 = legit in legit AS, 1 = legit in attack AS, 2 = attack."""
        attack_as = np.zeros(self.topology.n_as, dtype=bool)
        for asn in self.attack_ases:
            attack_as[asn] = True
        cats = np.zeros(self.n_flows, dtype=np.int8)
        in_attack_as = attack_as[self.flow_origin_as]
        cats[in_attack_as & ~self.flow_is_attack] = 1
        cats[self.flow_is_attack] = 2
        return cats


def build_internet_scenario(
    variant: str = "f-root",
    placement: str = "localized",
    n_as: int = 500,
    n_legit_sources: int = 2_000,
    n_legit_ases: int = 100,
    n_bots: int = 20_000,
    n_attack_ases: Optional[int] = None,
    target_capacity: float = 1_000.0,
    headroom: float = 1.5,
    attack_rate: float = 1.0,
    legit_rate: float = 1.0,
    seed: int = 7,
    build_flow_links: bool = True,
) -> InternetScenario:
    """Assemble one scenario.

    The paper's full size (10 k legit / 100 k bots / 16 k pkts-per-tick
    target) is reached with ``n_legit_sources=10_000, n_bots=100_000,
    n_as=2000, n_legit_ases=200, target_capacity=16_000``.  The defaults
    divide sources and bots by 5 but the target link by 16, so the
    benches run in seconds but the ratios move: a legitimate flow sends
    at most ``legit_rate`` pkt/tick, so at ``legit_rate=1`` legitimate
    demand is 2.0x the link at the defaults and 0.625x at full size, and
    the per-flow fair share is 0.045 pkt/tick against 0.145.

    No step of assembly loops over flows in Python: the flow tables are
    ``np.repeat`` over the per-AS counts, and the per-flow link-chain
    table repeats one array per origin AS.  ``build_flow_links=False``
    skips that table, a list with one entry per flow.  The fluid
    simulator never reads ``flow_links`` (it works on per-AS
    aggregates), so the benchmark's fluid workload turns it off;
    anything that walks per-flow paths needs the default.

    ``target_capacity``, ``legit_rate`` and ``headroom`` must be finite
    and positive: a capacity of 0 means "no limit" to the fluid model,
    and every uplink's capacity is a multiple of ``legit_rate``.
    """
    if placement not in PLACEMENTS:
        raise ConfigError(f"unknown placement {placement!r}; choose {PLACEMENTS}")
    for name, value in (
        ("target_capacity", target_capacity),
        ("legit_rate", legit_rate),
        ("headroom", headroom),
    ):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
    if n_attack_ases is None:
        # paper: 100 ASes localized, 300 dispersed; scale with the AS count
        base = 100 if placement == "localized" else 300
        n_attack_ases = max(2, round(base * n_as / 2000))

    topo = generate_route_tree(n_as=n_as, variant=variant)
    rng = random.Random(seed)
    non_root = list(range(1, n_as))

    bots = place_bots(non_root, n_bots, n_attack_ases, rng)
    if placement == "separated":
        # Fig. 15 topologies: legitimate ASes are kept apart from attack
        # ASes (no intentional placement, and sampling avoids them)
        attack_set = set(bots.attack_ases)
        candidates = [a for a in non_root if a not in attack_set]
        overlap = 0.0
    else:
        candidates = non_root
        overlap = 0.30  # paper: 30 % of legit sources inside attack ASes
    legit = place_legitimate(
        candidates,
        n_legit_sources,
        min(n_legit_ases, len(candidates)),
        rng,
        attack_ases=bots.attack_ases,
        overlap_fraction=overlap,
    )

    # --- flows -----------------------------------------------------------
    # legitimate flows, then bots, each by origin AS ascending
    per_as = sorted(legit.items()) + sorted(bots.bots_per_as.items())
    counts = np.array([count for _, count in per_as], dtype=np.int64)
    flow_origin_as = np.repeat(
        np.array([asn for asn, _ in per_as], dtype=np.int64), counts
    )
    flow_is_attack = np.zeros(len(flow_origin_as), dtype=bool)
    flow_is_attack[sum(legit.values()):] = True

    # --- links ------------------------------------------------------------
    # link 0: the target link (root AS -> destination); link asn (>0):
    # asn -> parent[asn].  Interior links are provisioned per subscriber
    # (hosts below, bots included) at headroom x the legitimate rate.
    hosts_below = np.zeros(n_as, dtype=np.float64)
    all_hosts: Dict[int, int] = dict(legit)
    for asn, count in bots.bots_per_as.items():
        all_hosts[asn] = all_hosts.get(asn, 0) + count
    for asn, count in all_hosts.items():
        node = asn
        while True:
            hosts_below[node] += count
            if node == 0:
                break
            node = topo.parent[node]
    link_capacity = np.maximum(
        legit_rate * 10.0, headroom * legit_rate * hosts_below
    )
    link_capacity[0] = target_capacity

    flow_links: List[np.ndarray] = []
    if build_flow_links:
        # one array per origin AS, shared by all of its flows
        path_cache: Dict[int, np.ndarray] = {}
        for asn, count in per_as:
            links = path_cache.get(asn)
            if links is None:
                chain = []
                node = asn
                while node != 0:
                    chain.append(node)  # link id == AS id for asn -> parent
                    node = topo.parent[node]
                chain.append(0)  # the target link
                links = path_cache[asn] = np.asarray(chain, dtype=np.int64)
            flow_links.extend([links] * count)

    return InternetScenario(
        topology=topo,
        placement=placement,
        target_capacity=target_capacity,
        link_capacity=link_capacity,
        flow_origin_as=flow_origin_as,
        flow_is_attack=flow_is_attack,
        flow_links=flow_links,
        attack_ases=list(bots.attack_ases),
        legit_rate=legit_rate,
        attack_rate=attack_rate,
    )
