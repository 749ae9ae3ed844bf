"""Network topology: nodes, directed links, and static routing.

A topology is a directed multigraph of named nodes.  Nodes need no explicit
objects: hosts are the nodes that terminate flows, routers are everything
else.  Each directed :class:`Link` carries a capacity (packets per tick,
``None`` meaning unbounded), a finite FIFO buffer, and an admission policy
(:class:`~repro.net.policy.LinkPolicy`).

Routing is static: flows carry their full node route, computed here with a
breadth-first shortest path.  That matches the paper's setting — BGP-stable
domain paths stamped at the origin (Section III-A) — while still letting
scenarios define arbitrary routes explicitly.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
)

from ..errors import TopologyError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import LinkMonitor
    from .packet import Packet
    from .policy import LinkPolicy

NodeId = Hashable


class Link:
    """One directed link ``src -> dst``.

    The per-tick service loop lives in the engine; the link only holds its
    configuration and mutable queue state.

    Attributes
    ----------
    capacity:
        Packets serviced per tick (may be fractional; the engine accumulates
        service credit).  ``None`` means unbounded (never congested).
    buffer:
        Maximum queue length in packets.  ``None`` means unbounded.
    delay:
        Propagation delay in ticks (>= 1).  The baseline model is one hop
        per tick; larger values model long-haul links and give scenarios
        heterogeneous RTTs (which FLoc's per-path estimation must handle).
    policy:
        Admission policy consulted for every arrival; ``None`` behaves like
        an unbounded-buffer drop-tail.
    up:
        Whether the link is operational.  Down links drop every packet
        handed to them and are invisible to route computation; fault
        injectors toggle this through :meth:`Engine.fail_link` /
        :meth:`Engine.restore_link` so queued packets are accounted for.
    """

    __slots__ = (
        "src",
        "dst",
        "capacity",
        "buffer",
        "delay",
        "policy",
        "up",
        "queue",
        "arrivals",
        "arrivals_next",
        "credit",
        "serviced_total",
        "dropped_total",
        "monitors",
    )

    def __init__(
        self,
        src: NodeId,
        dst: NodeId,
        capacity: Optional[float] = None,
        buffer: Optional[int] = None,
        delay: int = 1,
    ) -> None:
        if delay < 1:
            raise TopologyError(f"link delay must be >= 1 tick, got {delay}")
        if capacity is not None and capacity <= 0:
            raise TopologyError(
                f"link capacity must be positive (or None for unbounded), "
                f"got {capacity} for {src!r} -> {dst!r}"
            )
        if buffer is not None and buffer < 1:
            raise TopologyError(
                f"link buffer must be >= 1 packet (or None for unbounded), "
                f"got {buffer} for {src!r} -> {dst!r}"
            )
        self.src = src
        self.dst = dst
        self.capacity = capacity
        self.buffer = buffer
        self.delay = delay
        self.policy: Optional["LinkPolicy"] = None
        self.up = True
        self.queue: Deque["Packet"] = deque()
        self.arrivals: List["Packet"] = []
        self.arrivals_next: List["Packet"] = []
        self.credit = 0.0
        self.serviced_total = 0
        self.dropped_total = 0
        self.monitors: List["LinkMonitor"] = []

    @property
    def ends(self) -> Tuple[NodeId, NodeId]:
        """The ``(src, dst)`` node pair of this link."""
        return (self.src, self.dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.src}->{self.dst}, cap={self.capacity}, buf={self.buffer})"


class Topology:
    """A directed graph of links with helpers for routing.

    Examples
    --------
    >>> topo = Topology()
    >>> topo.add_duplex_link("a", "r", capacity=None)
    >>> topo.add_duplex_link("r", "b", capacity=10.0, buffer=50)
    >>> topo.shortest_route("a", "b")
    ['a', 'r', 'b']
    """

    def __init__(self) -> None:
        self._links: Dict[Tuple[NodeId, NodeId], Link] = {}
        self._out: Dict[NodeId, List[NodeId]] = {}
        self._in: Dict[NodeId, List[NodeId]] = {}
        #: bumped whenever the link set changes, so holders of resolved
        #: ``Link`` objects (the engine's route cache) know to re-resolve
        self.revision = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_link(
        self,
        src: NodeId,
        dst: NodeId,
        capacity: Optional[float] = None,
        buffer: Optional[int] = None,
        delay: int = 1,
    ) -> Link:
        """Add a directed link; replaces any existing ``src -> dst`` link.

        A running engine notices at the start of its next tick (see
        ``revision``) and moves the packets in flight onto the new object's
        route; packets already waiting on a replaced link are serviced by
        the old object one last time.
        """
        if src == dst:
            raise TopologyError(f"self-loop link at node {src!r}")
        link = Link(src, dst, capacity=capacity, buffer=buffer, delay=delay)
        if (src, dst) not in self._links:
            self._out.setdefault(src, []).append(dst)
            self._in.setdefault(dst, []).append(src)
            self._out.setdefault(dst, [])
            self._in.setdefault(src, [])
        self._links[(src, dst)] = link
        self.revision += 1
        return link

    def add_duplex_link(
        self,
        a: NodeId,
        b: NodeId,
        capacity: Optional[float] = None,
        buffer: Optional[int] = None,
        reverse_capacity: Optional[float] = None,
        delay: int = 1,
    ) -> Tuple[Link, Link]:
        """Add both directions; the reverse defaults to unbounded.

        Flooding scenarios congest one direction only; the reverse path must
        carry ACKs unhindered (the paper's evaluation does the same).
        """
        fwd = self.add_link(a, b, capacity=capacity, buffer=buffer, delay=delay)
        rev = self.add_link(b, a, capacity=reverse_capacity, buffer=None,
                            delay=delay)
        return fwd, rev

    def set_policy(self, src: NodeId, dst: NodeId, policy: "LinkPolicy") -> None:
        """Attach an admission policy to the ``src -> dst`` link."""
        self.link(src, dst).policy = policy

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def link(self, src: NodeId, dst: NodeId) -> Link:
        """Return the ``src -> dst`` link, raising if absent."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise TopologyError(f"no link {src!r} -> {dst!r}") from None

    def has_link(self, src: NodeId, dst: NodeId) -> bool:
        """Whether a ``src -> dst`` link exists."""
        return (src, dst) in self._links

    def links(self) -> Iterable[Link]:
        """All links in insertion order."""
        return self._links.values()

    def nodes(self) -> List[NodeId]:
        """All node ids."""
        return list(self._out.keys())

    def predecessors(self, node: NodeId) -> List[NodeId]:
        """Nodes with a link into ``node`` (used by Pushback propagation)."""
        return list(self._in.get(node, ()))

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shortest_route(self, src: NodeId, dst: NodeId) -> List[NodeId]:
        """Breadth-first shortest node route from ``src`` to ``dst``.

        Down links are skipped, so recomputing a failed flow's route
        automatically steers it around injected link failures.
        """
        if src == dst:
            return [src]
        if src not in self._out:
            raise TopologyError(f"unknown node {src!r}")
        parent: Dict[NodeId, NodeId] = {src: src}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            for nxt in self._out.get(node, ()):
                if nxt in parent or not self._links[(node, nxt)].up:
                    continue
                parent[nxt] = node
                if nxt == dst:
                    route = [dst]
                    while route[-1] != src:
                        route.append(parent[route[-1]])
                    route.reverse()
                    return route
                frontier.append(nxt)
        raise TopologyError(f"no route {src!r} -> {dst!r}")

    def validate_route(self, route: List[NodeId]) -> None:
        """Raise :class:`TopologyError` unless every hop of ``route`` exists."""
        if len(route) < 2:
            raise TopologyError(f"route must have at least two nodes, got {route!r}")
        for u, v in zip(route, route[1:]):
            if (u, v) not in self._links:
                raise TopologyError(f"route uses missing link {u!r} -> {v!r}")
            if not self._links[(u, v)].up:
                raise TopologyError(f"route uses down link {u!r} -> {v!r}")
