"""The route-tree generator as it stood at commit ``fd27c30``, kept as the oracle.

Everything below the imports is the old ``generate_route_tree`` verbatim:
it recomputes ``(degree + 1) ** hub_bias`` for every eligible AS each
time it attaches one, and picks the parent with a linear scan.
``test_skitter.py`` requires the incremental generator to return the
same ``parent``, ``depth`` and ``paths`` as this one for drawn variants,
sizes and seeds.  Do not modernise it.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.errors import ConfigError
from repro.inet.skitter import VARIANTS, SkitterLikeMap


def generate_route_tree(
    n_as: int = 500,
    variant: str = "f-root",
    seed: int = None,
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

    parent = [0]
    depth = [0]
    degree = [1.0]
    eligible = [0]  # ASes that can still take children
    for asn in range(1, n_as):
        weights = [(degree[a] + 1.0) ** hub_bias for a in eligible]
        total = sum(weights)
        pick = rng.random() * total
        acc = 0.0
        chosen = eligible[-1]
        for a, w in zip(eligible, weights):
            acc += w
            if pick <= acc:
                chosen = a
                break
        parent.append(chosen)
        depth.append(depth[chosen] + 1)
        degree.append(1.0)
        degree[chosen] += 1.0
        if depth[-1] < max_depth:
            eligible.append(asn)

    paths: Dict[int, Tuple[int, ...]] = {}
    for asn in range(n_as):
        chain = [asn]
        while chain[-1] != 0:
            chain.append(parent[chain[-1]])
        paths[asn] = tuple(chain)
    return SkitterLikeMap(variant=variant, parent=parent, depth=depth, paths=paths)
