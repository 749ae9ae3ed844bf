"""Legitimate-path aggregation as it stood at commit ``9d6899a``, kept as the oracle.

Everything below the imports is the old ``aggregate_legitimate_paths``
(and its ``_LegitUnit``) verbatim: it retries ``try_merge`` at every
node, pass-through nodes included, and excludes covert-guard violators
through ``cap_violators`` and ``id`` sets.  ``test_aggregation.py``
requires the current function to return the same groups as this one
for drawn trees, conformance values, flow counts, caps and tolerances.
Do not modernise it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pathid import PathId, PathTree, PathTreeNode


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
