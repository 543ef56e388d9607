"""TfrcFlow: one sender/receiver pair wired over a pair of network ports.

A *port* is anything with ``send(packet) -> bool`` and
``connect(receiver)`` -- :class:`repro.net.topology.FlowPort`,
:class:`repro.net.path.LossyPath`, a :class:`repro.net.path.Path`, or the
two directions of a :class:`repro.net.dummynet.DummynetPipe` (adapted).
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from repro.core.receiver import TfrcReceiver
from repro.core.sender import TfrcSender
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


class Port(Protocol):
    """Minimal duck type both topology and path endpoints satisfy."""

    def send(self, packet: Packet) -> bool: ...

    def connect(self, receiver: Callable[[Packet], None]) -> None: ...


class TfrcFlow:
    """One TFRC unicast flow: sender on the forward port, receiver replies
    on the reverse port."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        forward_port: Port,
        reverse_port: Port,
        packet_size: int = 1000,
        tracer: Optional[Tracer] = None,
        on_data: Optional[Callable[[float, Packet], None]] = None,
        **sender_kwargs,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        receiver_kwargs = {}
        for key in (
            "ali_n",
            "history_discounting",
            "reorder_tolerance",
            "feedback_interval_rtts",
        ):
            if key in sender_kwargs:
                receiver_kwargs[key] = sender_kwargs.pop(key)
        # The ports' bool return (accepted?) is ignored by sender/receiver;
        # handing the bound method over directly skips a per-packet lambda.
        self.sender = TfrcSender(
            sim,
            flow_id,
            send_packet=forward_port.send,
            packet_size=packet_size,
            tracer=tracer,
            **sender_kwargs,
        )
        self.receiver = TfrcReceiver(
            sim,
            flow_id,
            send_feedback=reverse_port.send,
            packet_size=packet_size,
            on_data=on_data,
            **receiver_kwargs,
        )
        forward_port.connect(self.receiver.receive)
        reverse_port.connect(self.sender.on_feedback)

    def start(self, at: Optional[float] = None) -> None:
        """Start the sender now, or at absolute time ``at``."""
        if at is None:
            self.sender.start()
        else:
            self.sim.schedule(at, self.sender.start)

    def stop(self) -> None:
        self.sender.stop()
        self.receiver.stop()

    @property
    def loss_event_rate(self) -> float:
        return self.receiver.loss_event_rate()

    @property
    def rate(self) -> float:
        """Current allowed sending rate, bytes/second."""
        return self.sender.rate
