"""TfrcFlow: one TFRC sender/receiver pair wired over a pair of ports."""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.receiver import TfrcReceiver
from repro.core.sender import TfrcSender
from repro.net.flow import Flow, Port
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


class TfrcFlow(Flow):
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
        receiver_kwargs = {}
        for key in ("history_discounting", "feedback_interval_rtts"):
            if key in sender_kwargs:
                receiver_kwargs[key] = sender_kwargs.pop(key)
        sender = TfrcSender(
            sim,
            flow_id,
            send_packet=forward_port.send,
            packet_size=packet_size,
            tracer=tracer,
            **sender_kwargs,
        )
        receiver = TfrcReceiver(
            sim,
            flow_id,
            send_feedback=reverse_port.send,
            packet_size=packet_size,
            on_data=on_data,
            **receiver_kwargs,
        )
        super().__init__(
            sim, flow_id, forward_port, reverse_port,
            sender, receiver, sender.on_feedback,
        )

    def stop(self) -> None:
        super().stop()
        self.receiver.stop()

    @property
    def loss_event_rate(self) -> float:
        return self.receiver.loss_event_rate()

    @property
    def rate(self) -> float:
        """Current allowed sending rate, bytes/second."""
        return self.sender.rate
