"""TCP receiver (sink): an immediate cumulative ACK with SACK blocks per segment.

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
            (RFC 7323-style).
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
    """Receives data packets and ACKs each one at once (no delayed ACKs)."""

    ACK_SIZE = 40  # bytes: TCP/IP header only
    MAX_SACK_BLOCKS = 3  # RFC 2018 with timestamps

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        send_ack: AckSender,
        on_data: Optional[Callable[[float, Packet], None]] = None,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self._send_ack = send_ack
        self.on_data = on_data
        self.next_expected = 0
        # Disjoint [start, end) intervals of held out-of-order data, sorted
        # by start, with per-interval recency (the arrival counter of the
        # newest member segment).
        self._blk_starts: List[int] = []
        self._blk_ends: List[int] = []
        self._blk_recency: List[int] = []
        self._arrivals_seen = 0
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
            self._send(packet.sent_at, seq)
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
            self._send(packet.sent_at, seq)  # duplicate data still triggers an ACK
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
        if seq == self.next_expected:
            # The first interval now begins exactly at next_expected; the
            # cumulative ACK consumes it whole (intervals are contiguous
            # runs, so partial consumption is impossible).
            self.next_expected = ends[0]
            del starts[0], ends[0], recency[0]
        self._send(packet.sent_at, seq)

    # ------------------------------------------------------- ACK emission

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
            (starts[i], ends[i]) for i in order[: self.MAX_SACK_BLOCKS]
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
