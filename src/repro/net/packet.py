"""Packets and packet metadata.

A packet is a small mutable record.  Protocol-specific state (TCP flags,
TFRC feedback fields) travels in the ``payload`` attribute so the network
layer stays protocol-agnostic.
"""

from __future__ import annotations

import enum
from typing import Any, Optional


class PacketType(enum.Enum):
    """Coarse packet classification used by queues and monitors."""

    DATA = "data"
    ACK = "ack"
    FEEDBACK = "feedback"


class Packet:
    """A simulated packet.

    Attributes:
        flow_id: opaque string identifying the flow, used by monitors and by
            receivers to demultiplex.
        seq: per-flow sequence number (data packets) or cumulative ACK number
            (ACK packets).
        size: size in bytes, including headers.
        ptype: coarse type (data / ack / feedback).
        sent_at: timestamp the packet entered the network (set by the sender).
        payload: protocol-specific object (e.g. a TFRC feedback report).
    """

    __slots__ = ("flow_id", "seq", "size", "ptype", "sent_at", "payload")

    def __init__(
        self,
        flow_id: str,
        seq: int,
        size: int,
        ptype: PacketType = PacketType.DATA,
        sent_at: float = 0.0,
        payload: Optional[Any] = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self.flow_id = flow_id
        self.seq = seq
        self.size = size
        self.ptype = ptype
        self.sent_at = sent_at
        self.payload = payload

    @property
    def is_data(self) -> bool:
        return self.ptype is PacketType.DATA

    @property
    def is_ack(self) -> bool:
        return self.ptype is PacketType.ACK

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Packet {self.flow_id} seq={self.seq} {self.ptype.value} "
            f"{self.size}B>"
        )
