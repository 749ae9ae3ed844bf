"""``TcpSource`` as it stood before its per-packet helpers were written
into ``on_tick`` and ``on_ack``, kept as the oracle.

The class and its module constants are the code of commit ``facd50a``,
verbatim, apart from the imports, which name the package absolutely:
``on_tick`` of an established source calls ``_check_rto``,
``_send_window`` and ``_next_timer``, and those call ``_packet``,
``_has_unsent``, ``_oldest_outstanding``, ``_rto_ticks`` and
``rtt_estimate``; ``on_ack`` calls ``_rtt_sample`` and
``_grow_window``.  ``test_sleep.py`` requires the current source to emit
the same packets and hold the same congestion state as this one on every
tick of drawn dumbbells.  Do not modernise it.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from repro.net.engine import Engine, FlowInfo
from repro.net.packet import DATA, SYN, Packet
from repro.net.source import TrafficSource

#: Duplicate-ACK threshold for fast-retransmit-style loss detection.
DUPACK_THRESHOLD = 3

#: Lower bound on the retransmission timeout, in ticks.
MIN_RTO_TICKS = 20

#: Initial slow-start threshold (packets) — effectively "no threshold".
INITIAL_SSTHRESH = 1 << 20

#: ``next_wake`` of a source that only a delivery can give work to.
NEVER = 1 << 62


class TcpSource(TrafficSource):
    """One TCP connection (one flow).

    Parameters
    ----------
    flow:
        The engine flow this source drives.
    total_packets:
        Number of data packets to transfer; ``None`` means a persistent
        flow that never finishes (the paper's long-FTP reference model).
    start_tick:
        Tick at which the SYN is sent.
    initial_cwnd:
        Congestion window right after connection establishment.
    """

    def __init__(
        self,
        flow: FlowInfo,
        total_packets: Optional[int] = None,
        start_tick: int = 0,
        initial_cwnd: float = 2.0,
    ) -> None:
        self.flow = flow
        self.total_packets = total_packets
        self.start_tick = start_tick
        self.initial_cwnd = initial_cwnd

        self.established = False
        self.finished = False
        self.cwnd = initial_cwnd
        self.ssthresh = float(INITIAL_SSTHRESH)
        self.srtt: Optional[float] = None
        self.capability: Optional[bytes] = None

        self._syn_sent_tick: Optional[int] = None
        self._first_syn_tick: Optional[int] = None
        self._syn_retransmits = 0
        self._next_seq = 0
        self._acked = 0
        # outstanding segment metadata: seq -> [send_tick, dup_count]
        self._meta: dict = {}
        # send-order queue of outstanding seqs (lazily cleaned)
        self._order: deque = deque()
        self._retransmit: deque = deque()
        # Karn's algorithm: never take RTT samples from segments that were
        # retransmitted — the ACK may belong to either transmission
        self._retransmitted: set = set()
        self._recovery_until = -1
        self._rto_backoff = 1
        # statistics
        self.packets_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.loss_events = 0
        self.next_wake = start_tick

    # ------------------------------------------------------------------
    # TrafficSource interface
    # ------------------------------------------------------------------
    def flows(self) -> Iterable[FlowInfo]:
        return (self.flow,)

    def on_tick(self, engine: Engine, tick: int) -> None:
        if self.finished:
            self.next_wake = NEVER
        elif tick < self.start_tick:
            self.next_wake = self.start_tick
        elif not self.established:
            self.next_wake = self._handshake(engine, tick)
        else:
            self._check_rto(engine, tick)
            self._send_window(engine, tick)
            self.next_wake = self._next_timer(tick)

    def on_synack(
        self, engine: Engine, flow: FlowInfo, pkt: Packet, tick: int
    ) -> None:
        self.next_wake = 0
        if self.established:
            return
        self.established = True
        self.capability = pkt.capability
        if self._syn_retransmits == 0 and self._syn_sent_tick is not None:
            self._rtt_sample(max(1, tick - self._syn_sent_tick))
        elif self._first_syn_tick is not None:
            # Karn: ambiguous which SYN this answers — take the elapsed
            # time since the *first* SYN as a safe RTT upper bound
            self._rtt_sample(max(1, tick - self._first_syn_tick))

    def on_ack(self, engine: Engine, flow: FlowInfo, pkt: Packet, tick: int) -> None:
        self.next_wake = 0
        seq = pkt.seq
        meta = self._meta
        entry = meta.pop(seq, None)
        if entry is not None:
            self._acked += 1
            if seq not in self._retransmitted:
                self._rtt_sample(max(1, tick - entry[0]))
                # only a fresh segment's timely ACK proves the timer is
                # long enough; ACKs of retransmits must not reset backoff
                self._rto_backoff = 1
            else:
                self._retransmitted.discard(seq)
            self._grow_window()
            if self.total_packets is not None and self._acked >= self.total_packets:
                self.finished = True
                return
        # duplicate-ACK accounting: outstanding segments older than the
        # acknowledged one have been "passed" by this ACK.
        order = self._order
        while order and order[0] not in meta:
            order.popleft()
        lost = None
        for pending in order:
            if pending >= seq:
                break
            pending_entry = meta.get(pending)
            if pending_entry is None:
                continue
            pending_entry[1] += 1
            if pending_entry[1] >= DUPACK_THRESHOLD:
                if lost is None:
                    lost = []
                lost.append(pending)
        if lost:
            for seq_lost in lost:
                meta.pop(seq_lost, None)
                self._retransmit.append(seq_lost)
                self._retransmitted.add(seq_lost)
                self.retransmissions += 1
            self._loss_event(tick)

    # ------------------------------------------------------------------
    # congestion control internals
    # ------------------------------------------------------------------
    def rtt_estimate(self) -> float:
        """Smoothed RTT in ticks (10.0 before the first sample)."""
        return self.srtt if self.srtt is not None else 10.0

    def _rtt_sample(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = float(sample)
        else:
            self.srtt += 0.125 * (sample - self.srtt)

    def _grow_window(self) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0  # slow start
        else:
            self.cwnd += 1.0 / self.cwnd  # congestion avoidance
        # cap in-flight work for finite transfers
        if self.total_packets is not None:
            remaining = self.total_packets - self._acked
            if self.cwnd > remaining + 1:
                self.cwnd = float(remaining + 1)

    def _loss_event(self, tick: int) -> None:
        """Multiplicative decrease, at most once per RTT of losses."""
        if tick < self._recovery_until:
            return
        self.loss_events += 1
        self.cwnd = max(1.0, self.cwnd / 2.0)
        self.ssthresh = max(2.0, self.cwnd)
        self._recovery_until = tick + int(round(self.rtt_estimate()))

    def _rto_ticks(self) -> int:
        rtt = self.rtt_estimate()
        return max(MIN_RTO_TICKS, int(round(2.0 * rtt))) * self._rto_backoff

    def _oldest_outstanding(self) -> Optional[int]:
        """Sequence number of the oldest unacknowledged segment."""
        meta = self._meta
        if not meta:
            return None
        order = self._order
        while order and order[0] not in meta:
            order.popleft()
        return order[0] if order else None

    def _next_timer(self, tick: int) -> int:
        """First tick after ``tick`` on which an established source acts
        without an ACK arriving first."""
        if int(self.cwnd) > len(self._meta) and self._has_unsent():
            # re-sending a segment that was still outstanding used a window
            # slot without filling it: the next tick sends more
            return tick + 1
        # the window is full or there is nothing left to send, so the next
        # event is the oldest segment's RTO
        oldest = self._oldest_outstanding()
        if oldest is None:
            return NEVER
        return self._meta[oldest][0] + self._rto_ticks() + 1

    def _check_rto(self, engine: Engine, tick: int) -> None:
        oldest = self._oldest_outstanding()
        meta = self._meta
        if oldest is None or tick - meta[oldest][0] <= self._rto_ticks():
            return
        # timeout: everything outstanding is presumed lost
        order = self._order
        self.timeouts += 1
        for seq in list(order):
            if meta.pop(seq, None) is not None:
                self._retransmit.append(seq)
                self._retransmitted.add(seq)
        order.clear()
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = 1.0
        self._recovery_until = tick + int(round(self.rtt_estimate()))
        self._rto_backoff = min(self._rto_backoff * 2, 64)
        self.loss_events += 1

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def _handshake(self, engine: Engine, tick: int) -> int:
        """(Re)send the SYN if its timer ran out; returns the tick at which
        the timer of the SYN now outstanding runs out."""
        sent = self._syn_sent_tick
        if sent is None or tick - sent > self._rto_ticks():
            if sent is not None:
                self._rto_backoff = min(self._rto_backoff * 2, 64)
                self._syn_retransmits += 1
            else:
                self._first_syn_tick = tick
            self._syn_sent_tick = sent = tick
            engine.emit(self._packet(SYN, 0, tick))
        return sent + self._rto_ticks() + 1

    def _has_unsent(self) -> bool:
        """Whether a retransmission or a never-sent segment is waiting."""
        return (
            bool(self._retransmit)
            or self.total_packets is None
            or self._next_seq < self.total_packets
        )

    def _send_window(self, engine: Engine, tick: int) -> None:
        meta = self._meta
        can_send = int(self.cwnd) - len(meta)
        while can_send > 0 and self._has_unsent():
            if self._retransmit:
                seq = self._retransmit.popleft()
            else:
                seq = self._next_seq
                self._next_seq += 1
            meta[seq] = [tick, 0]
            self._order.append(seq)
            self.packets_sent += 1
            engine.emit(self._packet(DATA, seq, tick))
            can_send -= 1

    def _packet(self, kind: int, seq: int, tick: int) -> Packet:
        flow = self.flow
        return Packet(
            flow.flow_id,
            kind,
            seq,
            flow.path_id,
            flow.route,
            flow.src_host,
            flow.dst_host,
            tick,
            self.capability,
        )
