"""Flow: one sender/receiver pair wired over a pair of network ports.

A *port* is anything with ``send(packet) -> bool`` and
``connect(receiver)`` -- :class:`repro.net.topology.FlowPort`,
:class:`repro.net.link.Link` or :class:`repro.net.path.LossyPath` (fig03's
Dummynet-style pipe is one of each).

Every protocol's ``*Flow`` (TFRC, TCP, TFRCP) builds its two
endpoints on ``forward_port.send`` / ``reverse_port.send`` and hands them
here.  The ports' bool return (accepted?) is ignored by every endpoint, so
the bound methods are handed over directly: no per-packet wrapper frame.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol

from repro.net.packet import Packet
from repro.sim.engine import Simulator


class Port(Protocol):
    """Minimal duck type both topology and path endpoints satisfy."""

    def send(self, packet: Packet) -> bool: ...

    def connect(self, receiver: Callable[[Packet], None]) -> None: ...


class Flow:
    """Data forward to ``receiver.receive``, feedback back to ``on_reverse``
    (the sender's ``on_feedback`` / ``on_ack``)."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        forward_port: Port,
        reverse_port: Port,
        sender: Any,
        receiver: Any,
        on_reverse: Callable[[Packet], None],
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self.sender = sender
        self.receiver = receiver
        forward_port.connect(receiver.receive)
        reverse_port.connect(on_reverse)

    def start(self, at: Optional[float] = None) -> None:
        """Start the sender now, or at absolute time ``at``."""
        if at is None:
            self.sender.start()
        else:
            self.sim.schedule(at, self.sender.start)

    def stop(self) -> None:
        self.sender.stop()
