"""TcpFlow: one TCP sender/sink pair wired over a pair of network ports."""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.flow import Flow, Port
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.tcp.sender import TCPSender
from repro.tcp.sink import TCPSink


class TcpFlow(Flow):
    """One TCP flow: sender on the forward port, sink ACKs on the reverse.

    ``variant`` accepts only ``"sack"``, the one TCP (the paper's Sack1);
    any other value raises naming it.  It stays a parameter because callers
    that name the variant, such as the ``tcp.sack.pkt_ns`` bench probe,
    pass it.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        forward_port: Port,
        reverse_port: Port,
        variant: str = "sack",
        tracer: Optional[Tracer] = None,
        on_data: Optional[Callable[[float, Packet], None]] = None,
        **sender_kwargs,
    ) -> None:
        if variant != "sack":
            raise ValueError(
                f"unknown TCP variant {variant!r}: the one TCP is 'sack'"
            )
        sender = TCPSender(
            sim,
            flow_id,
            send_packet=forward_port.send,
            tracer=tracer,
            **sender_kwargs,
        )
        self.sink = TCPSink(
            sim, flow_id, send_ack=reverse_port.send, on_data=on_data
        )
        super().__init__(
            sim, flow_id, forward_port, reverse_port,
            sender, self.sink, sender.on_ack,
        )

    @property
    def cwnd(self) -> float:
        return self.sender.cwnd
