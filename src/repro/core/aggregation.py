"""Path-identifier aggregation (paper Section IV-C).

Two complementary aggregations run at a congested router, both on the
traffic tree of its path identifiers (``_flat_tree``):

* **Attack-path aggregation** (Section IV-C.1, Algorithm 1): when the
  number of active path identifiers exceeds ``|S|_max``, path identifiers
  of highly contaminated domains are merged — starting from *nearby*
  domains (longest common suffix) — until at most
  ``|S|_max - |S^L|`` attack identifiers remain.  Because bandwidth is
  assigned per identifier, merging ``k`` attack paths into one reassigns
  ``k - 1`` bandwidth shares to legitimate paths.  The greedy algorithm
  minimises the *aggregation cost* ``C^A(R) = mean conformance of the
  leaf paths under R`` (aggregating low-conformance subtrees first).

* **Legitimate-path aggregation** (Section IV-C.2, Eq. IV.8): legitimate
  paths with different flow populations are merged — the merged group is
  allocated bandwidth *in proportion to the number of aggregated paths* —
  whenever the net conformance change
  ``C^L(R) = mean(E_j) - sum(E_j n_j) / sum(n_j)`` is negative, i.e. the
  merge raises flow-weighted conformance and thus link goodput.  A merge
  is vetoed if it would raise any member path's bandwidth allocation by
  more than a configured fraction (50 % in the paper) — the guard that
  stops covert paths with huge flow counts from soaking legitimate
  bandwidth.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from .pathid import PathId

#: Group keys: a singleton group is keyed by its path id; an aggregated
#: group by ("AGG-A"/"AGG-L", router-side suffix).
GroupKey = Tuple


class AggregationPlan:
    """The result of an aggregation pass: path -> group, group -> share."""

    def __init__(self) -> None:
        self.group_of: Dict[PathId, GroupKey] = {}
        self.members: Dict[GroupKey, List[PathId]] = {}
        self.shares: Dict[GroupKey, float] = {}
        # inputs the plan was built from, for the runtime |S| <= |S|_max
        # invariant (repro.sanitize): aggregate_attack_paths guarantees at
        # most max(1, s_max - n_legit) attack identifiers, so the total is
        # bounded by max(s_max, n_legit + 1)
        self.s_max: Optional[int] = None
        self.n_legit_inputs: Optional[int] = None

    def add_group(
        self, key: GroupKey, members: Sequence[PathId], share: float
    ) -> None:
        """Register a group; every member maps to it."""
        self.members[key] = list(members)
        self.shares[key] = share
        for pid in members:
            self.group_of[pid] = key

    def group(self, pid: PathId) -> GroupKey:
        """Group key of ``pid`` (unknown paths are their own group)."""
        return self.group_of.get(pid, pid)

    @property
    def n_groups(self) -> int:
        """Number of distinct path identifiers after aggregation."""
        return len(self.members)


# ----------------------------------------------------------------------
# the traffic tree
# ----------------------------------------------------------------------
#: ``_flat_tree``'s lists: ``(kids, depth, leaves, own, first)``.
_FlatTree = Tuple[
    List[Dict[int, int]], List[int], List[int], List[Optional[PathId]],
    List[PathId],
]


def _flat_tree(pids: Sequence[PathId]) -> _FlatTree:
    """The traffic tree of ``pids`` as plain lists, built in one pass
    from the router side: node 0 is the router, and node ``i`` has its
    children ``kids[i]`` (AS number -> node, in order of creation), its
    ``depth``, its number of ``leaves`` below or at it, the path that
    ends at it (``own``, or ``None``) and the first path through it
    (``first``; its suffix of length ``depth[i]`` is the node's, and it
    is the only path through a node with one leaf).  Nodes are numbered
    in order of creation, parents before children; Algorithm 1 breaks
    cost ties by that order.  ``pids`` must be distinct.
    """
    kids: List[Dict[int, int]] = [{}]
    depth = [0]
    leaves = [len(pids)]
    own: List[Optional[PathId]] = [None]
    first: List[PathId] = [()]
    for pid in pids:
        if not pid:
            raise ConfigError("empty path identifier")
        node = 0
        for asn in reversed(pid):
            below = kids[node]
            if asn in below:
                node = below[asn]
                leaves[node] += 1
            else:
                child = below[asn] = len(kids)
                kids.append({})
                depth.append(depth[node] + 1)
                leaves.append(1)
                own.append(None)
                first.append(pid)
                node = child
        own[node] = pid
    return kids, depth, leaves, own, first


def _depth_first(
    kids: List[Dict[int, int]], leaves: List[int], own: List[Optional[PathId]]
) -> Tuple[List[PathId], List[int]]:
    """The paths of a ``_flat_tree`` listed depth first, a node's own
    path before its children's, and where each node's subtree starts in
    that list: node ``i``'s paths are ``order[start[i] : start[i] +
    leaves[i]]``.  A parent is numbered before its children, so one
    pass in node order knows where a node starts before it places the
    node's children.
    """
    order: List[PathId] = [()] * leaves[0]
    start = [0] * len(kids)
    for node, children in enumerate(kids):
        at = start[node]
        pid = own[node]
        if pid is not None:
            order[at] = pid
            at += 1
        for child in children.values():
            start[child] = at
            at += leaves[child]
    return order, start


# ----------------------------------------------------------------------
# attack-path aggregation (Algorithm 1)
# ----------------------------------------------------------------------
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

    kids, depth, leaves, own, first = _flat_tree(attack_pids)
    order, start = _depth_first(kids, leaves, own)

    def paths_under(node: int) -> List[PathId]:
        return order[start[node] : start[node] + leaves[node]]

    # candidate aggregation points: nodes below the router covering >= 2
    # paths, in order of creation; each costs C^A, the mean conformance
    # of its paths
    candidates = [node for node in range(1, len(kids)) if leaves[node] >= 2]
    cost = [0.0] * len(kids)
    for node in candidates:
        paths = paths_under(node)
        cost[node] = sum(conformance.get(pid, 1.0) for pid in paths) / len(paths)
    # sort: cost ascending, then deeper nodes first (longest suffix), so
    # "aggregation starts from nearby domains"
    ordered = sorted(candidates, key=lambda n: (cost[n], -depth[n]))

    solution: List[int] = []
    reduction = 0  # identifiers the solution saves: its paths minus its nodes
    needed = len(attack_pids) - budget
    for node in ordered:
        if reduction >= needed:
            break
        # two aggregation points overlap iff one subtree contains the
        # other, i.e. their slices of ``order`` overlap
        lo, hi = start[node], start[node] + leaves[node]
        if any(start[n] < hi and lo < start[n] + leaves[n] for n in solution):
            continue
        solution.append(node)
        reduction += leaves[node] - 1
        # Algorithm 1 step 2: a single candidate replaces the current
        # solution set if it is cheaper than the set's total cost while
        # costing more than any individual member (an ancestor covering
        # them all), provided it still achieves the needed reduction.
        if len(solution) >= 2:
            total = sum(cost[n] for n in solution)
            worst = max(cost[n] for n in solution)
            for challenger in ordered:
                saves = leaves[challenger] - 1
                if worst < cost[challenger] < total and saves >= needed:
                    solution = [challenger]
                    reduction = saves
                    break

    if reduction < needed:
        # fall back: merge every attack path into one identifier
        return [((), attack_pids)]
    return [
        (first[n][len(first[n]) - depth[n] :], paths_under(n)) for n in solution
    ]


# ----------------------------------------------------------------------
# legitimate-path aggregation (Eq. IV.8)
# ----------------------------------------------------------------------


#: A current unit of ``aggregate_legitimate_paths``, one path or an
#: already-merged group: ``(flows, conformance, n_paths, per_flow,
#: conformance * flows, paths, suffix)``, where ``per_flow`` is the
#: unit's per-flow allocation ``n_paths / flows`` (0.0 when it has no
#: flows, where the covert guard never reads it).
_LegitUnit = Tuple[float, float, int, float, float, List[PathId], PathId]

_flows_of = itemgetter(0)
_conformance_of = itemgetter(1)
_n_paths_of = itemgetter(2)
_weighted_of = itemgetter(4)


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

    Every float reduction here is the builtin ``sum`` over the units in
    the order they are listed.  A test holds this function to a verbatim
    reference implementation bit for bit, and CI runs it on Python 3.10
    and 3.12, whose ``sum`` rounds differently (3.12 adds floats with
    compensation).  Only the same call over the same sequence matches
    the reference on both; an ``np.bincount`` pass, ``math.fsum`` or a
    reordered or running sum would not.

    Returns ``[(suffix, member paths), ...]`` for groups of >= 2 paths.
    """
    legit_pids = list(dict.fromkeys(legit_pids))
    if len(legit_pids) < 2:
        return []
    kids, depth, leaves, own, first = _flat_tree(legit_pids)
    factor_cap = 1.0 + bandwidth_increase_cap

    def leaf_unit(pid: PathId) -> _LegitUnit:
        flows = max(0.0, flow_counts.get(pid, 0.0))
        conf = conformance.get(pid, 1.0)
        return (
            flows, conf, 1, 1 / flows if flows > 0 else 0.0, conf * flows,
            [pid], pid,
        )

    def try_merge(
        units: List[_LegitUnit], node: int
    ) -> Optional[List[_LegitUnit]]:
        """Merge as many of ``units`` as allowed; None if no merge."""
        candidates = units
        total_flows = 0.0
        n_paths = 0
        after = 0.0
        # exclude the units whose per-flow allocation would grow past the
        # cap (``per_flow`` shares per flow before the merge,
        # ``n_paths / total_flows`` after); removing one changes the
        # post-merge allocation, so repeat to a fixed point
        while len(candidates) >= 2:
            total_flows = sum(map(_flows_of, candidates))
            if total_flows <= 0:
                return None
            n_paths = sum(map(_n_paths_of, candidates))
            after = n_paths / total_flows
            kept = [
                u
                for u in candidates
                if u[0] <= 0 or not after / u[3] > factor_cap
            ]
            if len(kept) == len(candidates):
                break
            candidates = kept
        if len(candidates) < 2:
            return None
        # Eq. (IV.8) over the units (the loop's last pass summed
        # ``total_flows`` and ``n_paths`` over exactly these)
        mean_e = sum(map(_conformance_of, candidates)) / len(candidates)
        weighted_e = sum(map(_weighted_of, candidates)) / total_flows
        if not mean_e - weighted_e <= cost_tolerance:
            return None
        pid = first[node]
        merged: _LegitUnit = (
            total_flows,
            weighted_e,
            n_paths,
            after,
            weighted_e * total_flows,
            [p for u in candidates for p in u[5]],
            pid[len(pid) - depth[node] :],
        )
        if candidates is units:
            return [merged]
        kept_ids = {id(u) for u in candidates}
        return [merged] + [u for u in units if id(u) not in kept_ids]

    # the units left at each node with >= 2 leaves after merging in its
    # subtree, and whether ``try_merge`` already failed on exactly these
    # units; a child is numbered after its parent, so walking the nodes
    # backwards reaches every child first
    units_at: List[List[_LegitUnit]] = [[]] * len(kids)
    failed_at = [False] * len(kids)
    for node in range(len(kids) - 1, -1, -1):
        if leaves[node] < 2:
            continue
        children = kids[node]
        if len(children) == 1 and own[node] is None:
            # a pass-through node holds its child's units unchanged, and
            # whether try_merge merges depends on the units alone: a
            # failure below is a failure here
            (child,) = children.values()
            units = units_at[child]
            if failed_at[child]:
                units_at[node] = units
                failed_at[node] = True
                continue
        else:
            # gather units from children (merged below) and own leaf;
            # unmerged units propagate upward so every ancestor gets a
            # chance.  A one-leaf subtree merges nothing: it is its
            # path's unit.
            units = []
            for child in children.values():
                if leaves[child] == 1:
                    units.append(leaf_unit(first[child]))
                else:
                    units.extend(units_at[child])
            pid = own[node]
            if pid is not None:
                units.append(leaf_unit(pid))
        if len(units) >= 2:
            merged = try_merge(units, node)
            if merged is None:
                failed_at[node] = True
            else:
                units = merged
        units_at[node] = units
    return [(u[6], u[5]) for u in units_at[0] if u[2] >= 2]


def _is_attack_group(key: GroupKey) -> bool:
    return bool(key) and isinstance(key[0], str) and key[0] == "AGG-A"


def plan_moves(
    old: "AggregationPlan",
    new: "AggregationPlan",
    pids: Iterable[PathId],
) -> List[Tuple[PathId, GroupKey, GroupKey, str]]:
    """Diff two aggregation plans over ``pids`` (pure; used by telemetry).

    Returns one ``(pid, old_key, new_key, kind)`` tuple per path whose
    group assignment changed, where ``kind`` is:

    * ``"demote"`` — the path entered an attack aggregate (Algorithm 1
      folded it under an ``AGG-A`` identifier),
    * ``"promote"`` — the path left an attack aggregate (its conformance
      recovered above ``E_th``),
    * ``"regroup"`` — it moved between non-attack groups (Eq. IV.8
      legitimate-path merges reshuffling).
    """
    moves: List[Tuple[PathId, GroupKey, GroupKey, str]] = []
    for pid in pids:
        old_key = old.group(pid)
        new_key = new.group(pid)
        if old_key == new_key:
            continue
        was_attack = _is_attack_group(old_key)
        now_attack = _is_attack_group(new_key)
        if now_attack and not was_attack:
            kind = "demote"
        elif was_attack and not now_attack:
            kind = "promote"
        else:
            kind = "regroup"
        moves.append((pid, old_key, new_key, kind))
    return moves


# ----------------------------------------------------------------------
# combined plan
# ----------------------------------------------------------------------
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

    if legitimate_aggregation and len(remaining_legit) >= 2:
        for suffix, members in aggregate_legitimate_paths(
            remaining_legit,
            conformance,
            flow_counts,
            bandwidth_increase_cap,
            cost_tolerance=cost_tolerance,
        ):
            plan.add_group(("AGG-L",) + tuple(suffix), members, float(len(members)))

    # every path no group above took is a singleton, written straight
    # into the plan's dicts (each gets its keys in the order
    # ``add_group`` would give them); the two lists are disjoint, so a
    # path already in ``group_of`` is one a group took
    group_of, members, shares = plan.group_of, plan.members, plan.shares
    for pid in remaining_legit + remaining_attack:
        if pid not in group_of:
            members[pid] = [pid]
            shares[pid] = 1.0
            group_of[pid] = pid
    return plan
