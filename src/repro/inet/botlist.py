"""CBL-like bot placement and GeoLite-like AS populations.

The paper's measured facts that we reproduce synthetically:

* bot contamination is highly non-uniform — in the Composite Blocking
  List, "95% of the IP addresses belong to 1.7% of active ASs"
  (Section I); within the contaminated ASes the counts are heavy-tailed;
* legitimate hosts are placed "randomly in proportion to AS population"
  (Section VII-A), with AS populations heavy-tailed (GeoLite ASN).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..errors import ConfigError


@dataclass
class BotPlacement:
    """Bots per AS plus the set of contaminated (attack) ASes."""

    bots_per_as: Dict[int, int]
    attack_ases: List[int]

    @property
    def total_bots(self) -> int:
        return sum(self.bots_per_as.values())

    def concentration(self, top_fraction: float = 0.017) -> float:
        """Fraction of bots inside the top ``top_fraction`` of attack ASes.

        With the CBL-calibrated default this should come out near 0.95
        when the AS universe is large enough.
        """
        counts = sorted(self.bots_per_as.values(), reverse=True)
        top = max(1, round(top_fraction * len(counts)))
        return sum(counts[:top]) / max(1, self.total_bots)


def heavy_tailed_populations(
    n_as: int, rng: random.Random, alpha: float = 1.2
) -> List[float]:
    """Zipf-like AS population weights (GeoLite-style heavy tail)."""
    ranks = list(range(1, n_as + 1))
    rng.shuffle(ranks)
    return [1.0 / (rank ** alpha) for rank in ranks]


def place_bots(
    candidate_ases: Sequence[int],
    n_bots: int,
    n_attack_ases: int,
    rng: random.Random,
    core_fraction: float = 0.95,
    core_as_fraction: float = 0.10,
) -> BotPlacement:
    """Distribute ``n_bots`` over ``n_attack_ases`` contaminated ASes.

    A ``core_as_fraction`` of the attack ASes (at least one) receives
    ``core_fraction`` of the bots Zipf-style; the rest are spread thinly —
    matching CBL's extreme concentration.
    """
    if n_attack_ases < 1:
        raise ConfigError(f"n_attack_ases must be >= 1, got {n_attack_ases}")
    if n_attack_ases > len(candidate_ases):
        raise ConfigError(
            f"need {n_attack_ases} attack ASes but only "
            f"{len(candidate_ases)} candidates"
        )
    attack_ases = rng.sample(list(candidate_ases), n_attack_ases)
    n_core = max(1, round(core_as_fraction * n_attack_ases))
    core, fringe = attack_ases[:n_core], attack_ases[n_core:]

    bots_per_as: Dict[int, int] = {asn: 0 for asn in attack_ases}
    core_bots = round(core_fraction * n_bots) if fringe else n_bots
    weights = [1.0 / (i + 1) for i in range(len(core))]
    total_w = sum(weights)
    assigned = 0
    for asn, w in zip(core, weights):
        share = round(core_bots * w / total_w)
        bots_per_as[asn] += share
        assigned += share
    fringe_bots = n_bots - assigned
    if fringe:
        # round robin over the fringe: every AS gets ``base``, the first
        # ``extra`` one more
        base, extra = divmod(max(0, fringe_bots), len(fringe))
        for i, asn in enumerate(fringe):
            bots_per_as[asn] += base + (i < extra)
    else:
        bots_per_as[core[0]] += max(0, fringe_bots)
    return BotPlacement(bots_per_as=bots_per_as, attack_ases=attack_ases)


def place_legitimate(
    candidate_ases: Sequence[int],
    n_sources: int,
    n_legit_ases: int,
    rng: random.Random,
    attack_ases: Sequence[int] = (),
    overlap_fraction: float = 0.0,
) -> Dict[int, int]:
    """Place legitimate sources proportionally to AS population.

    ``overlap_fraction`` of the sources are deliberately attached to
    attack ASes (the paper places 30 % there "in order to observe
    differential guarantees", Section VII-A).
    """
    if n_legit_ases > len(candidate_ases):
        raise ConfigError(
            f"need {n_legit_ases} legit ASes but only "
            f"{len(candidate_ases)} candidates"
        )
    chosen = rng.sample(list(candidate_ases), n_legit_ases)
    populations = heavy_tailed_populations(len(chosen), rng)
    total_pop = sum(populations)

    overlap = round(overlap_fraction * n_sources) if attack_ases else 0
    normal = n_sources - overlap

    sources_per_as: Dict[int, int] = {}
    assigned = 0
    for asn, pop in zip(chosen, populations):
        count = int(normal * pop / total_pop)
        if count:
            sources_per_as[asn] = sources_per_as.get(asn, 0) + count
            assigned += count
    # distribute rounding remainder
    remainder = normal - assigned
    for i in range(remainder):
        asn = chosen[i % len(chosen)]
        sources_per_as[asn] = sources_per_as.get(asn, 0) + 1

    if overlap:
        attack_list = list(attack_ases)
        n_attack = len(attack_list)
        # a Counter keeps first-draw order, as one-at-a-time adds would
        drawn = Counter(
            attack_list[rng.randrange(n_attack)] for _ in range(overlap)
        )
        for asn, count in drawn.items():
            sources_per_as[asn] = sources_per_as.get(asn, 0) + count
    return sources_per_as
