"""Skitter-map-like route-tree generation.

A CAIDA Skitter map is a set of traceroute paths from one vantage point
(a root DNS server) to 300-400 k hosts; collapsing it to AS level gives,
for each origin AS, the AS path towards the vantage point — a tree rooted
at the vantage AS.  The paper uses three maps (f-root, h-root, JPN) whose
differences are essentially branching structure and how far attack ASes
sit from the target.

We synthesise such trees directly: a random recursive tree over ASes with
preferential attachment (hub-biased, like AS peering) and a depth cap, so
AS-path lengths land in the observed 3-8 AS-hop range.  The three named
variants are seeds plus mild parameter shifts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError

#: Named variants standing in for the paper's three skitter maps.
VARIANTS: Dict[str, dict] = {
    "f-root": {"seed": 101, "hub_bias": 1.0, "max_depth": 6},
    "h-root": {"seed": 202, "hub_bias": 1.4, "max_depth": 7},
    "jpn": {"seed": 303, "hub_bias": 0.7, "max_depth": 8},
}


@dataclass
class SkitterLikeMap:
    """An AS-level route tree rooted at the target's AS (AS 0).

    Attributes
    ----------
    parent:
        ``parent[asn]`` is the next AS towards the target (root's parent
        is itself).
    depth:
        AS-hop distance to the target.
    paths:
        ``paths[asn]`` is the origin-first AS path ``(asn, ..., root)`` —
        exactly the FLoc path identifier stamped for traffic from ``asn``.
    """

    variant: str
    parent: List[int]
    depth: List[int]
    paths: Dict[int, Tuple[int, ...]] = field(default_factory=dict)

    @property
    def n_as(self) -> int:
        return len(self.parent)

    def path_of(self, asn: int) -> Tuple[int, ...]:
        return self.paths[asn]

    def children_of(self) -> Dict[int, List[int]]:
        """Reverse adjacency (towards the origins)."""
        children: Dict[int, List[int]] = {}
        for asn, par in enumerate(self.parent):
            if asn != par:
                children.setdefault(par, []).append(asn)
        return children

    def depth_histogram(self) -> Dict[int, int]:
        """AS count per distance-to-target (the Fig. 11/12 x-axis)."""
        hist: Dict[int, int] = {}
        for d in self.depth:
            hist[d] = hist.get(d, 0) + 1
        return hist


def generate_route_tree(
    n_as: int = 500,
    variant: str = "f-root",
    seed: Optional[int] = None,
) -> SkitterLikeMap:
    """Generate a skitter-like AS route tree.

    The root (AS 0) is the target's AS.  New ASes attach to an existing AS
    chosen with probability proportional to ``(degree + 1)^hub_bias``
    among ASes below the depth cap — heavy-tailed degrees, bounded path
    lengths.
    """
    if n_as < 2:
        raise ConfigError(f"n_as must be >= 2, got {n_as}")
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; choose {list(VARIANTS)}")
    params = VARIANTS[variant]
    rng = random.Random(seed if seed is not None else params["seed"])
    hub_bias = params["hub_bias"]
    max_depth = params["max_depth"]

    # The pick is a linear scan's: the first eligible AS whose running
    # weight sum (``acc += w`` in ``eligible`` order) reaches ``pick``,
    # else ``eligible[-1]``.  ``np.cumsum`` adds sequentially in that
    # order, so ``searchsorted`` finds the same AS.  One weight per
    # eligible AS is kept, and only the chosen AS's changes.  The list
    # feeds ``total`` through the builtin ``sum``, whose float algorithm
    # differs between CPython versions, as the scan's total did; the
    # array feeds the prefix scan.
    parent = [0]
    depth = [0]
    degree = [1.0]
    eligible = [0]  # ASes that can still take children
    leaf_weight = 2.0**hub_bias  # (degree 1 + 1) ** hub_bias
    weights = [leaf_weight]
    weight_arr = np.empty(n_as, dtype=np.float64)
    weight_arr[0] = leaf_weight
    for asn in range(1, n_as):
        total = sum(weights)
        pick = rng.random() * total
        n_eligible = len(eligible)
        k = int(np.cumsum(weight_arr[:n_eligible]).searchsorted(pick))
        k = min(k, n_eligible - 1)
        chosen = eligible[k]
        parent.append(chosen)
        depth.append(depth[chosen] + 1)
        degree.append(1.0)
        degree[chosen] += 1.0
        weights[k] = weight_arr[k] = (degree[chosen] + 1.0) ** hub_bias
        if depth[-1] < max_depth:
            weight_arr[n_eligible] = leaf_weight
            eligible.append(asn)
            weights.append(leaf_weight)

    paths: Dict[int, Tuple[int, ...]] = {0: (0,)}
    for asn in range(1, n_as):
        paths[asn] = (asn,) + paths[parent[asn]]
    return SkitterLikeMap(variant=variant, parent=parent, depth=depth, paths=paths)
