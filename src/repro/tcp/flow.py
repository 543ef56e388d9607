"""TcpFlow: one TCP sender/sink pair wired over a pair of network ports."""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.tcp import make_tcp_sender
from repro.tcp.sink import TCPSink


class TcpFlow:
    """One TCP flow: sender on the forward port, sink ACKs on the reverse."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        forward_port,
        reverse_port,
        variant: str = "sack",
        packet_size: int = 1000,
        tracer: Optional[Tracer] = None,
        on_data: Optional[Callable[[float, Packet], None]] = None,
        delayed_ack: bool = False,
        **sender_kwargs,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        # Ports' ``send`` returns a bool (accepted?) that the sender and
        # sink ignore; the bound methods are handed over directly so each
        # packet skips a lambda frame.
        self.sender = make_tcp_sender(
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
        forward_port.connect(self.sink.receive)
        reverse_port.connect(self.sender.on_ack)

    def start(self, at: Optional[float] = None) -> None:
        if at is None:
            self.sender.start()
        else:
            self.sim.schedule(at, self.sender.start)

    def stop(self) -> None:
        self.sender.stop()

    @property
    def cwnd(self) -> float:
        return self.sender.cwnd
