"""Aggregation and the traffic tree as they stood before the lighter
regroup, kept as the oracle.

``aggregate_legitimate_paths`` (and its ``_LegitUnit``) is the function
as it stood at commit ``9d6899a``, verbatim: it retries ``try_merge`` at
every node, pass-through nodes included, and excludes covert-guard
violators through ``cap_violators`` and ``id`` sets.  ``PathTreeNode``,
``PathTree``, ``_aggregation_cost``, ``aggregate_attack_paths`` and
``build_plan`` are the code of commit ``2c07b96``, verbatim: the tree
slices every suffix of a path on insertion, and the plan filters the
merged members out once per group.  ``test_aggregation.py`` requires
the current code to build the same trees, groups and plans as this one
for drawn trees, attack sets, ``s_max`` values, conformance values, flow
counts, caps and tolerances.  Do not modernise it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.aggregation import AggregationPlan
from repro.core.pathid import PathId
from repro.errors import ConfigError


class PathTreeNode:
    """One node of the traffic tree (identified by a router-side suffix)."""

    __slots__ = ("suffix", "children", "leaf_pids")

    def __init__(self, suffix: PathId) -> None:
        self.suffix = suffix
        self.children: Dict[int, "PathTreeNode"] = {}
        self.leaf_pids: List[PathId] = []

    @property
    def depth(self) -> int:
        """Distance (in AS hops) from the congested router."""
        return len(self.suffix)

    def descend_leaves(self) -> List[PathId]:
        """All full path identifiers below (or at) this node."""
        out = list(self.leaf_pids)
        for child in self.children.values():
            out.extend(child.descend_leaves())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PathTreeNode(suffix={self.suffix}, leaves={len(self.leaf_pids)})"


class PathTree:
    """Traffic tree over a set of path identifiers, rooted at the router.

    >>> tree = PathTree([(1, 5, 9), (2, 5, 9), (3, 6, 9)])
    >>> sorted(len(n.leaf_pids) for n in tree.nodes())
    [0, 0, 0, 1, 1, 1]
    """

    def __init__(self, pids: Iterable[PathId]) -> None:
        self.root = PathTreeNode(())
        self._nodes: Dict[PathId, PathTreeNode] = {(): self.root}
        for pid in pids:
            self.insert(pid)

    def insert(self, pid: PathId) -> None:
        """Add one full path identifier to the tree."""
        if not pid:
            raise ConfigError("empty path identifier")
        node = self.root
        # walk from the router side towards the origin
        for i in range(len(pid) - 1, -1, -1):
            suffix = pid[i:]
            asn = pid[i]
            child = node.children.get(asn)
            if child is None:
                child = PathTreeNode(suffix)
                node.children[asn] = child
                self._nodes[suffix] = child
            node = child
        node.leaf_pids.append(pid)

    def node(self, suffix: PathId) -> Optional[PathTreeNode]:
        """The node for a suffix, or ``None``."""
        return self._nodes.get(suffix)

    def nodes(self) -> Iterable[PathTreeNode]:
        """All nodes except the root."""
        return (n for s, n in self._nodes.items() if s != ())

    def internal_nodes(self) -> List[PathTreeNode]:
        """Nodes with children (candidate aggregation points)."""
        return [n for n in self.nodes() if n.children]

    def leaves_under(self, suffix: PathId) -> List[PathId]:
        """Full path identifiers whose suffix matches ``suffix``."""
        node = self._nodes.get(suffix)
        return node.descend_leaves() if node is not None else []


class _LegitUnit:
    """A current aggregation unit: one path or an already-merged group."""

    __slots__ = ("paths", "flows", "conformance", "suffix")

    def __init__(
        self,
        paths: List[PathId],
        flows: float,
        conformance: float,
        suffix: PathId = (),
    ) -> None:
        self.paths = paths
        self.flows = flows
        self.conformance = conformance
        self.suffix = suffix


def aggregate_legitimate_paths(
    legit_pids: Sequence[PathId],
    conformance: Dict[PathId, float],
    flow_counts: Dict[PathId, float],
    bandwidth_increase_cap: float = 0.5,
    cost_tolerance: float = 0.02,
) -> List[Tuple[PathId, List[PathId]]]:
    """Merge legitimate paths where Eq. (IV.8) is non-positive.

    Aggregation proceeds bottom-up ("starts from nearby domains"): at each
    internal node of the legitimate traffic tree the current units below
    it (paths, or groups merged deeper down) are merged into one when

    * the Eq. (IV.8) cost over the units is <= ``cost_tolerance`` — the
      merge does not (materially) reduce flow-weighted conformance.  With
      equal conformance the cost is exactly 0 and the merge simply makes
      allocation proportional to flow counts, the Fig. 9 behaviour; the
      tolerance absorbs identification noise that would otherwise leave
      near-tie merges unmade.  And
    * no unit's per-flow bandwidth allocation would grow by more than
      ``bandwidth_increase_cap`` (50 % in the paper) — the guard that
      keeps covert paths with huge flow counts from soaking bandwidth
      (Section IV-C.2).

    Returns ``[(suffix, member paths), ...]`` for groups of >= 2 paths.
    """
    legit_pids = list(dict.fromkeys(legit_pids))
    if len(legit_pids) < 2:
        return []
    tree = PathTree(legit_pids)
    factor_cap = 1.0 + bandwidth_increase_cap

    def cost_ok(units: List[_LegitUnit]) -> bool:
        total_flows = sum(u.flows for u in units)
        if total_flows <= 0:
            return False
        mean_e = sum(u.conformance for u in units) / len(units)
        weighted_e = sum(u.conformance * u.flows for u in units) / total_flows
        return mean_e - weighted_e <= cost_tolerance

    def cap_violators(units: List[_LegitUnit]) -> List[_LegitUnit]:
        """Units whose per-flow allocation would grow past the cap.

        Allocation before is ``|paths_u| / n_u`` shares per flow; after
        the merge it is ``|paths_G| / n_G``.
        """
        total_flows = sum(u.flows for u in units)
        n_paths = sum(len(u.paths) for u in units)
        if total_flows <= 0:
            return []
        after = n_paths / total_flows
        out = []
        for unit in units:
            if unit.flows <= 0:
                continue
            before = len(unit.paths) / unit.flows
            if after / before > factor_cap:
                out.append(unit)
        return out

    def try_merge(
        units: List[_LegitUnit], suffix: PathId
    ) -> Optional[List[_LegitUnit]]:
        """Merge as many of ``units`` as allowed; None if no merge."""
        candidates = list(units)
        # iteratively exclude covert-guard violators: removing one unit
        # changes the post-merge allocation, so repeat to a fixed point
        while len(candidates) >= 2:
            violators = cap_violators(candidates)
            if not violators:
                break
            excluded_ids = {id(v) for v in violators}
            candidates = [u for u in candidates if id(u) not in excluded_ids]
        if len(candidates) < 2 or not cost_ok(candidates):
            return None
        total_flows = sum(u.flows for u in candidates)
        weighted_e = (
            sum(u.conformance * u.flows for u in candidates) / total_flows
        )
        merged = _LegitUnit(
            [pid for u in candidates for pid in u.paths],
            total_flows,
            weighted_e,
            suffix=suffix,
        )
        kept_ids = {id(u) for u in candidates}
        rest = [u for u in units if id(u) not in kept_ids]
        return [merged] + rest

    def merge_at(node: PathTreeNode) -> List[_LegitUnit]:
        # gather units from children (recursively merged) and own leaves;
        # unmerged units propagate upward so every ancestor gets a chance
        units: List[_LegitUnit] = []
        for child in node.children.values():
            units.extend(merge_at(child))
        for pid in node.leaf_pids:
            units.append(
                _LegitUnit(
                    [pid],
                    max(0.0, flow_counts.get(pid, 0.0)),
                    conformance.get(pid, 1.0),
                    suffix=pid,
                )
            )
        if len(units) < 2:
            return units
        merged = try_merge(units, node.suffix)
        return merged if merged is not None else units

    final_units = merge_at(tree.root)
    return [
        (unit.suffix, unit.paths)
        for unit in final_units
        if len(unit.paths) >= 2
    ]


# ----------------------------------------------------------------------
# attack-path aggregation (Algorithm 1)
# ----------------------------------------------------------------------
def _aggregation_cost(node: PathTreeNode, conformance: Dict[PathId, float]) -> float:
    leaves = node.descend_leaves()
    if not leaves:
        return 0.0
    return sum(conformance.get(pid, 1.0) for pid in leaves) / len(leaves)


def aggregate_attack_paths(
    attack_pids: Sequence[PathId],
    conformance: Dict[PathId, float],
    n_legit_paths: int,
    s_max: int,
) -> List[Tuple[PathId, List[PathId]]]:
    """Greedy Algorithm 1: choose aggregation nodes in the attack tree.

    Returns ``[(suffix, member-paths), ...]`` — each entry is one merged
    attack identifier.  The number of attack identifiers after aggregation
    is at most ``max(1, s_max - n_legit_paths)``.

    The greedy solution's distance from optimal is bounded by the product
    of ``E_th`` and the degree of the last added node (paper Section
    IV-C.1); we also guarantee feasibility by falling back to merging all
    attack paths into a single identifier when the budget is smaller than
    any subtree decomposition allows.
    """
    if s_max < 1:
        raise ConfigError(f"s_max must be >= 1, got {s_max}")
    attack_pids = list(dict.fromkeys(attack_pids))
    budget = max(1, s_max - n_legit_paths)
    if len(attack_pids) <= budget:
        return []

    tree = PathTree(attack_pids)
    # candidate aggregation points: internal nodes covering >= 2 paths,
    # deepest (nearest the origins) first so "aggregation starts from
    # nearby domains".
    candidates = [
        node
        for node in tree.nodes()
        if len(node.descend_leaves()) >= 2 and node.children
    ]
    if not candidates:
        return [((), attack_pids)] if len(attack_pids) > budget else []

    costs = {node.suffix: _aggregation_cost(node, conformance) for node in candidates}
    # sort: cost ascending, then deeper nodes first (longest suffix)
    ordered = sorted(candidates, key=lambda n: (costs[n.suffix], -n.depth))

    solution: List[PathTreeNode] = []

    def is_suffix(short: PathId, long: PathId) -> bool:
        return len(short) <= len(long) and long[len(long) - len(short) :] == short

    def covered(node: PathTreeNode, chosen: List[PathTreeNode]) -> bool:
        # two aggregation points overlap iff one subtree contains the other,
        # i.e. one node's suffix is a suffix of the other's.
        return any(
            is_suffix(other.suffix, node.suffix) or is_suffix(node.suffix, other.suffix)
            for other in chosen
        )

    def reduction(chosen: List[PathTreeNode]) -> int:
        return sum(len(node.descend_leaves()) - 1 for node in chosen)

    needed = len(attack_pids) - budget
    for node in ordered:
        if reduction(solution) >= needed:
            break
        if covered(node, solution):
            continue
        solution.append(node)
        # Algorithm 1 step 2: a single candidate replaces the current
        # solution set if it is cheaper than the set's total cost while
        # costing more than any individual member (an ancestor covering
        # them all), provided it still achieves the needed reduction.
        if len(solution) >= 2:
            total = sum(costs[n.suffix] for n in solution)
            worst = max(costs[n.suffix] for n in solution)
            for challenger in ordered:
                cost = costs[challenger.suffix]
                if not worst < cost < total:
                    continue
                if len(challenger.descend_leaves()) - 1 >= needed:
                    solution = [challenger]
                    break

    if reduction(solution) < needed:
        # fall back: merge every attack path into one identifier
        return [((), attack_pids)]

    groups: List[Tuple[PathId, List[PathId]]] = []
    for node in solution:
        groups.append((node.suffix, node.descend_leaves()))
    return groups


def build_plan(
    legit_pids: Sequence[PathId],
    attack_pids: Sequence[PathId],
    conformance: Dict[PathId, float],
    flow_counts: Dict[PathId, float],
    s_max: Optional[int],
    bandwidth_increase_cap: float = 0.5,
    legitimate_aggregation: bool = True,
    cost_tolerance: float = 0.02,
) -> AggregationPlan:
    """Run both aggregations and assemble the group/share plan.

    Attack groups get one share (the punishment); merged legitimate groups
    get one share per member path (proportional allocation); everything
    else keeps its own single share.
    """
    plan = AggregationPlan()
    remaining_attack = list(dict.fromkeys(attack_pids))
    attack_set = set(remaining_attack)
    remaining_legit = [p for p in dict.fromkeys(legit_pids) if p not in attack_set]
    plan.s_max = s_max
    plan.n_legit_inputs = len(remaining_legit)

    if s_max is not None and remaining_attack:
        for suffix, members in aggregate_attack_paths(
            remaining_attack, conformance, len(remaining_legit), s_max
        ):
            plan.add_group(("AGG-A",) + tuple(suffix), members, 1.0)
            member_set = set(map(tuple, members))
            remaining_attack = [p for p in remaining_attack if tuple(p) not in member_set]

    if legitimate_aggregation and len(remaining_legit) >= 2:
        for suffix, members in aggregate_legitimate_paths(
            remaining_legit,
            conformance,
            flow_counts,
            bandwidth_increase_cap,
            cost_tolerance=cost_tolerance,
        ):
            plan.add_group(("AGG-L",) + tuple(suffix), members, float(len(members)))
            member_set = set(map(tuple, members))
            remaining_legit = [p for p in remaining_legit if tuple(p) not in member_set]

    for pid in remaining_legit + remaining_attack:
        plan.add_group(pid, [pid], 1.0)
    return plan
