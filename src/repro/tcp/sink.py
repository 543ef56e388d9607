"""TCP receiver (sink): cumulative ACKs, SACK blocks, optional delayed ACKs.

Out-of-order data is held as a sorted list of disjoint ``[start, end)``
intervals with a per-interval arrival-recency tag.  Each arrival touches at
most two neighbouring intervals (``bisect`` lookup + merge/extend), and
building an ACK's SACK blocks is a selection over the handful of intervals
-- not a re-sort of every held sequence number.  The ACK stream is
property-tested in ``tests/test_net_fastpath.py`` against a model that
regroups a plain set of held sequence numbers on every ACK.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, List, Optional, Tuple

from repro.net.packet import Packet, PacketType
from repro.sim.engine import Simulator

AckSender = Callable[[Packet], None]


class TCPAckInfo:
    """Payload carried by ACK packets (one allocated per ACK: slotted).

    Attributes:
        echo_ts: send timestamp echoed for RTT measurement at the sender
            (RFC 7323-style).  For ACKs covering a delayed (held) segment
            this is the *earliest* pending segment's timestamp, so the
            delayed-ACK hold time is included in the measured RTT and the
            RTO stays conservative (RFC 7323 section 4.2).
        echo_seq: sequence number of the echoed data packet.
        sack_blocks: up to three ``(start, end)`` half-open ranges of
            out-of-order data held by the receiver, ordered by arrival
            recency: the first block contains the most recently received
            segment (RFC 2018 section 4).
    """

    __slots__ = ("echo_ts", "echo_seq", "sack_blocks")

    def __init__(
        self,
        echo_ts: float,
        echo_seq: int,
        sack_blocks: Optional[List[Tuple[int, int]]] = None,
    ) -> None:
        self.echo_ts = echo_ts
        self.echo_seq = echo_seq
        self.sack_blocks = [] if sack_blocks is None else sack_blocks


class TCPSink:
    """Receives data packets and emits (possibly delayed) cumulative ACKs."""

    ACK_SIZE = 40  # bytes: TCP/IP header only

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        send_ack: AckSender,
        delayed_ack: bool = False,
        delack_interval: float = 0.2,
        on_data: Optional[Callable[[float, Packet], None]] = None,
        max_sack_blocks: int = 3,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self._send_ack = send_ack
        self.delayed_ack = delayed_ack
        self.delack_interval = delack_interval
        self.on_data = on_data
        self.max_sack_blocks = max_sack_blocks
        self.next_expected = 0
        # Disjoint [start, end) intervals of held out-of-order data, sorted
        # by start, with per-interval recency (the arrival counter of the
        # newest member segment).
        self._blk_starts: List[int] = []
        self._blk_ends: List[int] = []
        self._blk_recency: List[int] = []
        self._arrivals_seen = 0
        self._pending_ack_echo: Optional[Tuple[float, int]] = None
        self._delack_event = None
        self.packets_received = 0
        self.acks_sent = 0
        self.duplicate_data = 0

    def receive(self, packet: Packet) -> None:
        """Handle an arriving data packet."""
        if packet.ptype is not PacketType.DATA:
            return
        self.packets_received += 1
        if self.on_data is not None:
            self.on_data(self.sim._now, packet)
        seq = packet.seq
        self._arrivals_seen += 1
        starts = self._blk_starts
        if seq == self.next_expected and not starts:
            # Common case: in-order data with nothing held out of order.
            self.next_expected = seq + 1
            if self.delayed_ack:
                self._maybe_delay_ack(packet)
            else:
                self._emit_ack(packet)
            return
        ends = self._blk_ends
        recency = self._blk_recency
        # Locate the interval with the greatest start <= seq (if any).
        i = bisect_right(starts, seq) - 1
        if seq < self.next_expected or (i >= 0 and seq < ends[i]):
            self.duplicate_data += 1
            if i >= 0 and seq >= starts[i] and seq < ends[i]:
                # A duplicate of held out-of-order data is still the most
                # recent arrival; its block must lead the next SACK.
                recency[i] = self._arrivals_seen
            self._emit_ack(packet)  # duplicate data still triggers an ACK
            return
        # Fresh data: splice into the interval structure.  At most the two
        # neighbouring intervals are touched.
        left_adjacent = i >= 0 and ends[i] == seq
        right_adjacent = i + 1 < len(starts) and starts[i + 1] == seq + 1
        if left_adjacent and right_adjacent:
            ends[i] = ends[i + 1]
            del starts[i + 1], ends[i + 1], recency[i + 1]
            recency[i] = self._arrivals_seen
        elif left_adjacent:
            ends[i] = seq + 1
            recency[i] = self._arrivals_seen
        elif right_adjacent:
            starts[i + 1] = seq
            recency[i + 1] = self._arrivals_seen
        else:
            starts.insert(i + 1, seq)
            ends.insert(i + 1, seq + 1)
            recency.insert(i + 1, self._arrivals_seen)
        in_order = seq == self.next_expected
        if in_order:
            # The first interval now begins exactly at next_expected; the
            # cumulative ACK consumes it whole (intervals are contiguous
            # runs, so partial consumption is impossible).
            self.next_expected = ends[0]
            del starts[0], ends[0], recency[0]
        if in_order and self.delayed_ack and not starts:
            self._maybe_delay_ack(packet)
        else:
            # Out-of-order data (or a gap fill) must be ACKed immediately so
            # the sender's fast-retransmit machinery sees dupACKs promptly.
            self._emit_ack(packet)

    # ------------------------------------------------------- ACK emission

    def _maybe_delay_ack(self, packet: Packet) -> None:
        if self._pending_ack_echo is None:
            self._pending_ack_echo = (packet.sent_at, packet.seq)
            self._delack_event = self.sim.schedule_in(
                self.delack_interval, self._delack_fire
            )
        else:
            # Second in-order packet: ACK both at once, echoing the *first*
            # (earliest) pending segment's timestamp so the hold time is
            # part of the measured RTT (RFC 7323 section 4.2).
            echo_ts, echo_seq = self._pending_ack_echo
            if self._delack_event is not None:
                self._delack_event.cancel()
                self._delack_event = None
            self._pending_ack_echo = None
            self._send(echo_ts, echo_seq)

    def _delack_fire(self) -> None:
        if self._pending_ack_echo is None:
            return
        echo_ts, echo_seq = self._pending_ack_echo
        self._pending_ack_echo = None
        self._delack_event = None
        self._send(echo_ts, echo_seq)

    def _emit_ack(self, packet: Packet) -> None:
        pending = self._pending_ack_echo
        if self._delack_event is not None:
            self._delack_event.cancel()
            self._delack_event = None
            self._pending_ack_echo = None
        if pending is not None:
            # Flushing a held ACK (an out-of-order or duplicate segment
            # arrived): the earliest pending in-order segment is the one
            # whose timestamp belongs in the echo (RFC 7323 section 4.2).
            self._send(pending[0], pending[1])
        else:
            self._send(packet.sent_at, packet.seq)

    def _sack_blocks(self) -> List[Tuple[int, int]]:
        """Contiguous ranges of out-of-order data above the cumulative ACK.

        Ordered by arrival recency, newest block first: RFC 2018 requires
        the first SACK block to contain the most recently received segment
        (so a sender sampling only the first block still learns what just
        arrived), not the highest-sequence block.
        """
        starts = self._blk_starts
        ends = self._blk_ends
        recency = self._blk_recency
        n = len(starts)
        if n == 1:
            return [(starts[0], ends[0])]
        # Recency tags are unique arrival counters, so the order is total.
        order = sorted(range(n), key=recency.__getitem__, reverse=True)
        return [
            (starts[i], ends[i]) for i in order[: self.max_sack_blocks]
        ]

    def _send(self, echo_ts: float, echo_seq: int) -> None:
        # Nothing held out of order (the common ACK): no blocks to select.
        blocks = self._sack_blocks() if self._blk_starts else None
        ack = Packet(
            self.flow_id, self.next_expected, self.ACK_SIZE, PacketType.ACK,
            self.sim._now, TCPAckInfo(echo_ts, echo_seq, blocks),
        )
        self.acks_sent += 1
        self._send_ack(ack)
