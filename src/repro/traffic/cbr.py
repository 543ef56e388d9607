"""Constant bit rate (CBR) UDP source."""

from __future__ import annotations

from typing import Optional

from repro.core.paced import PACKET_SIZE
from repro.net.packet import Packet, PacketType
from repro.sim.engine import Simulator
from repro.sim.process import FastTimer


class CbrSource:
    """Sends fixed-size packets at a constant rate into a port.

    UDP-like: no feedback, no congestion response.  Used for reverse-path
    filler traffic.  The ON/OFF sources do not build on it: entering OFF
    cancels the pending emission, which on a ``FastTimer`` would still pop
    as a counted no-op and move the event count ``internet_path_ucl``'s
    golden digest pins, so they keep their own cancellable events.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        port,
        rate_bps: float,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.flow_id = flow_id
        self._port = port
        self.rate_bps = rate_bps
        self._interval = PACKET_SIZE * 8 / rate_bps
        self._seq = 0
        self.packets_sent = 0
        self._timer = FastTimer(sim, self._emit)
        self._stopped = False

    def start(self, at: Optional[float] = None) -> None:
        """Start sending now, or at absolute time ``at`` (idempotent)."""
        if self._timer.pending:
            return
        self._stopped = False
        self._timer.start(0.0 if at is None else max(0.0, at - self.sim.now))

    def stop(self) -> None:
        self._stopped = True
        self._timer.cancel()

    def _emit(self) -> None:
        packet = Packet(
            flow_id=self.flow_id,
            seq=self._seq,
            size=PACKET_SIZE,
            ptype=PacketType.DATA,
            sent_at=self.sim._now,
        )
        self._seq += 1
        self.packets_sent += 1
        self._port.send(packet)
        if not self._stopped:
            self._timer.start(self._interval)
