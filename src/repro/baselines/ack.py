"""The per-packet ACK receiver RAP and TFRCP share.

Both protocols keep all their congestion control at the sender: the
receiver acknowledges every data packet, and the ACK stream carries loss
information implicitly (the sender notices un-ACKed sequence numbers).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.paced import PacketSender
from repro.net.packet import Packet, PacketType
from repro.sim.engine import Simulator


class PacketAck:
    """Per-packet acknowledgment payload."""

    __slots__ = ("echo_ts", "echo_seq")

    def __init__(self, echo_ts: float, echo_seq: int) -> None:
        self.echo_ts = echo_ts
        self.echo_seq = echo_seq


class AckReceiver:
    """Acknowledges every data packet."""

    ACK_SIZE = 40

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        send_ack: PacketSender,
        on_data: Optional[Callable[[float, Packet], None]] = None,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self._send_ack = send_ack
        self.on_data = on_data
        self.packets_received = 0

    def receive(self, packet: Packet) -> None:
        if not packet.is_data:
            return
        self.packets_received += 1
        now = self.sim._now
        if self.on_data is not None:
            self.on_data(now, packet)
        self._send_ack(
            Packet(
                flow_id=self.flow_id,
                seq=packet.seq,
                size=self.ACK_SIZE,
                ptype=PacketType.ACK,
                sent_at=now,
                payload=PacketAck(echo_ts=packet.sent_at, echo_seq=packet.seq),
            )
        )
