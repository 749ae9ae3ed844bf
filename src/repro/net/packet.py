"""Packet representation for the simulation engine.

Packets are deliberately tiny objects (``__slots__``, integer packet kinds)
because the functional scenarios push millions of packet-hop events through
pure Python.  One :class:`Packet` models one full-sized segment; control
packets (SYN/SYN-ACK/ACK) are 40-byte packets that, per the paper's
Section III-D, do not materially contribute to congestion and are therefore
carried on the (uncongested) reverse direction without consuming data-plane
tokens.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .topology import Link

#: Packet kinds (small ints for speed; see :func:`kind_name`).
DATA = 0
ACK = 1
SYN = 2
SYNACK = 3

_KIND_NAMES = {DATA: "DATA", ACK: "ACK", SYN: "SYN", SYNACK: "SYNACK"}


def kind_name(kind: int) -> str:
    """Human-readable name for a packet kind constant."""
    return _KIND_NAMES.get(kind, f"UNKNOWN({kind})")


class Packet:
    """One simulated packet.

    Lifecycle: a source builds a DATA or SYN packet and hands it to
    :meth:`Engine.emit`.  When it reaches the destination host, the engine
    turns that same object round as the reply: ``kind`` becomes ACK or
    SYNACK, ``path_id``, ``route`` and the addresses become the flow's
    (its ``reverse_route``, from ``dst_host`` to ``src_host``), ``hop``
    restarts at 0, and ``seq``, ``sent_tick`` and ``capability`` are
    echoed as they arrived.  So a DATA or SYN packet must not be kept
    past its delivery: by then it is the ACK or SYN-ACK in flight.  A
    packet that ends as a drop, or an ACK or SYN-ACK delivered to its
    source, is not reused.

    Attributes
    ----------
    flow_id:
        Integer id of the flow this packet belongs to (engine-assigned).
    kind:
        One of :data:`DATA`, :data:`ACK`, :data:`SYN`, :data:`SYNACK`.
    seq:
        Sequence number within the flow; ACKs echo the acknowledged
        sequence number.
    path_id:
        The FLoc domain-path identifier ``(AS_i, ..., AS_1)`` stamped by the
        BGP speaker of the packet's origin domain (paper Section III-A).
    route:
        The node-id route this packet follows, as a tuple; ``hop`` indexes
        the link about to be traversed (``route[hop] -> route[hop + 1]``).
    links:
        ``route`` resolved to its :class:`~repro.net.topology.Link` objects,
        ``None``-terminated so ``links[hop] is None`` means "route
        complete"; stamped by :meth:`Engine.emit` (empty until then), never
        by the constructor.
    src_addr / dst_addr:
        Endpoint addresses used by capability hashing (host ids double as
        addresses).
    sent_tick:
        Tick at which the source emitted the packet (for RTT bookkeeping).
    """

    __slots__ = (
        "flow_id",
        "kind",
        "seq",
        "path_id",
        "route",
        "links",
        "hop",
        "src_addr",
        "dst_addr",
        "sent_tick",
        "capability",
    )

    def __init__(
        self,
        flow_id: int,
        kind: int,
        seq: int,
        path_id: Tuple[int, ...],
        route: Sequence[Hashable],
        src_addr: Hashable,
        dst_addr: Hashable,
        sent_tick: int,
        capability: Optional[bytes] = None,
    ) -> None:
        self.flow_id = flow_id
        self.kind = kind
        self.seq = seq
        self.path_id = path_id
        self.route = route
        self.links: Tuple[Optional["Link"], ...] = ()
        self.hop = 0
        self.src_addr = src_addr
        self.dst_addr = dst_addr
        self.sent_tick = sent_tick
        self.capability = capability

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(flow={self.flow_id}, {kind_name(self.kind)}, seq={self.seq}, "
            f"hop={self.hop}/{len(self.route) - 1})"
        )

