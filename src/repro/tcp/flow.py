"""TcpFlow: one TCP sender/sink pair wired over a pair of network ports."""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.flow import Flow, Port
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.tcp import make_tcp_sender
from repro.tcp.sink import TCPSink


class TcpFlow(Flow):
    """One TCP flow: sender on the forward port, sink ACKs on the reverse."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        forward_port: Port,
        reverse_port: Port,
        variant: str = "sack",
        packet_size: int = 1000,
        tracer: Optional[Tracer] = None,
        on_data: Optional[Callable[[float, Packet], None]] = None,
        delayed_ack: bool = False,
        **sender_kwargs,
    ) -> None:
        sender = make_tcp_sender(
            variant,
            sim,
            flow_id,
            send_packet=forward_port.send,
            packet_size=packet_size,
            tracer=tracer,
            **sender_kwargs,
        )
        self.sink = TCPSink(
            sim,
            flow_id,
            send_ack=reverse_port.send,
            delayed_ack=delayed_ack,
            on_data=on_data,
        )
        super().__init__(
            sim, flow_id, forward_port, reverse_port,
            sender, self.sink, sender.on_ack,
        )

    @property
    def cwnd(self) -> float:
        return self.sender.cwnd
