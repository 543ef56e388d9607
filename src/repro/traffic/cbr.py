"""Constant bit rate (CBR) UDP source."""

from __future__ import annotations

from typing import Optional

from repro.net.packet import Packet, PacketType
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess


class CbrSource:
    """Sends fixed-size packets at a constant rate into a port.

    UDP-like: no feedback, no congestion response.  Used for reverse-path
    filler traffic and as the building block of the ON/OFF sources.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        port,
        rate_bps: float,
        packet_size: int = 1000,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.flow_id = flow_id
        self._port = port
        self.rate_bps = rate_bps
        self.packet_size = packet_size
        self._interval = packet_size * 8 / rate_bps
        self._seq = 0
        self.packets_sent = 0
        self._process = PeriodicProcess(sim, self._emit, lambda: self._interval)

    def start(self, at: Optional[float] = None) -> None:
        delay = 0.0 if at is None else max(0.0, at - self.sim.now)
        self._process.start(initial_delay=delay)

    def stop(self) -> None:
        self._process.stop()

    @property
    def running(self) -> bool:
        return self._process.running

    def _emit(self) -> None:
        packet = Packet(
            flow_id=self.flow_id,
            seq=self._seq,
            size=self.packet_size,
            ptype=PacketType.DATA,
            sent_at=self.sim._now,
        )
        self._seq += 1
        self.packets_sent += 1
        self._port.send(packet)
