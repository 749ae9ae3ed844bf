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

#: Every weight ``(degree + 1) ** hub_bias`` is >= 1, so its float is a
#: whole multiple of 2**-52 and ``w * _SCALE`` is an exact integer.
_SCALE = 2.0**52
#: A pick is decided on exact sums when ``random()`` times the exact total,
#: widened by ``n_eligible * total / 2**_SLACK_SHIFT`` on both sides, lies
#: inside one AS's interval.  The scan's float sums and its pick are off
#: by less than ``(2 n + 3) * 2**-53 * total``, over 2**10 times less.
_SLACK_SHIFT = 40


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

    # The pick is a linear scan's (``_scan_pick``), decided on exact
    # sums: a Fenwick tree over the weights as integers (``w * _SCALE``)
    # gives every prefix sum S_k in O(log n).  The descent finds the
    # first eligible AS whose S_k reaches the low end of the draw's
    # window; when S_k also clears the high end (or the AS is the last
    # eligible one, which the scan falls back to), no rounding of the
    # scan's float sums can move its pick, so that AS is the scan's.
    # Otherwise the step runs the scan itself.
    parent = [0]
    depth = [0]
    degree = [1.0]
    eligible = [0]  # ASes that can still take children
    leaf_weight = 2.0**hub_bias  # (degree 1 + 1) ** hub_bias
    leaf_int = int(leaf_weight * _SCALE)
    # one weight per eligible AS, in ``eligible`` order, as a float for
    # the scan and as an exact integer for the Fenwick tree
    weights = [leaf_weight]
    exact = [leaf_int]
    # Every Fenwick slot starts at ``leaf_int``, as if all ASes were
    # eligible leaves: a slot past the eligible ones never changes, and
    # the descent never reaches it, since ``low`` is below ``total``.
    size = 1 << n_as.bit_length()  # Fenwick indices 1 .. size - 1 >= n_as
    fenwick = [(index & -index) * leaf_int for index in range(size)]
    total = leaf_int  # the exact sum of ``exact``
    steps = [1 << b for b in range(size.bit_length() - 2, -1, -1)]
    for asn in range(1, n_as):
        n_eligible = len(eligible)
        r = rng.random()
        # r is a whole multiple of 2**-53, so ``center`` is floor(r * total)
        center = (int(r * 2.0**53) * total) >> 53
        slack = (n_eligible * total) >> _SLACK_SHIFT
        low = center - slack
        k = 0
        below = 0  # the exact weight of eligible[:k]
        for step in steps:
            reach = below + fenwick[k + step]
            if reach < low:
                k += step
                below = reach
        if k < n_eligible - 1 and below + exact[k] <= center + slack:
            k = _scan_pick(weights, r)
        chosen = eligible[k]
        parent.append(chosen)
        depth.append(depth[chosen] + 1)
        degree.append(1.0)
        degree[chosen] += 1.0
        weights[k] = weight = (degree[chosen] + 1.0) ** hub_bias
        weight_int = int(weight * _SCALE)
        delta = weight_int - exact[k]
        exact[k] = weight_int
        total += delta
        index = k + 1
        while index < size:
            fenwick[index] += delta
            index += index & -index
        if depth[-1] < max_depth:
            eligible.append(asn)
            weights.append(leaf_weight)
            exact.append(leaf_int)
            total += leaf_int

    paths: Dict[int, Tuple[int, ...]] = {0: (0,)}
    for asn in range(1, n_as):
        paths[asn] = (asn,) + paths[parent[asn]]
    return SkitterLikeMap(variant=variant, parent=parent, depth=depth, paths=paths)


def _scan_pick(weights: List[float], r: float) -> int:
    """The linear scan's pick: the first index whose running weight sum
    (``acc += w`` in order) reaches ``r * sum(weights)``, else the last.

    ``np.cumsum`` adds sequentially in that order, so ``searchsorted``
    finds the same index.  ``total`` is the builtin ``sum``, whose float
    algorithm differs between CPython versions, as the scan's total did.
    """
    pick = r * sum(weights)
    k = int(np.cumsum(weights).searchsorted(pick))
    return min(k, len(weights) - 1)
