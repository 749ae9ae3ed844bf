"""Domain-path identifiers and the congested router's traffic tree.

A *path identifier* (paper Section III-A) is the sequence of AS numbers a
packet traverses from its origin domain to the router's domain, stamped by
the BGP speaker of the origin domain.  We store it origin-first:

    ``pid = (AS_origin, ..., AS_router)``

Two paths that share their last ``k`` elements (their *suffix*) merge ``k``
hops before the congested router; the set of active path identifiers
therefore forms a tree rooted at the router (the paper's traffic tree
``T_R0``), and "aggregation starts from nearby domains (i.e., domains with
longest postfix-matching path identifiers)" (Section IV-C.1).

:class:`PathTree` materialises that tree: a node is identified by a suffix
tuple, its children extend the suffix by one AS towards the origins, and
its leaves are full path identifiers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigError

#: A domain-path identifier, origin AS first.
PathId = Tuple[int, ...]


def origin_as(pid: PathId) -> int:
    """The AS that originated flows carrying this path identifier."""
    if not pid:
        raise ConfigError("empty path identifier")
    return pid[0]


def common_suffix(a: PathId, b: PathId) -> PathId:
    """Longest common suffix of two path identifiers.

    The suffix is the portion nearest the congested router, so its length
    measures how close to the router the two paths merge.
    """
    n = 0
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            break
        n += 1
    return a[len(a) - n :] if n else ()


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
        """Add one full path identifier to the tree.

        The tree holds every suffix of every path it holds, so the
        suffixes of ``pid`` that are missing are its longest ones: find
        the longest that is present, then create the missing ones router
        side first.  ``nodes()`` lists nodes in creation order, and
        ``aggregate_attack_paths`` breaks cost ties by that order.
        """
        if not pid:
            raise ConfigError("empty path identifier")
        nodes = self._nodes
        node = nodes.get(pid)
        if node is None:
            start = 1
            while pid[start:] not in nodes:  # the root's () always is
                start += 1
            node = nodes[pid[start:]]
            for i in range(start - 1, -1, -1):
                suffix = pid[i:]
                child = PathTreeNode(suffix)
                node.children[pid[i]] = child
                nodes[suffix] = child
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
