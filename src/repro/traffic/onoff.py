"""Pareto ON/OFF UDP sources (self-similar background traffic).

The paper's section 4.1.3 scenario: "several ON/OFF UDP sources whose
ON/OFF times are drawn from heavy-tailed distributions such as the Pareto
distribution.  The mean ON time is 1 second and the mean OFF time is 2
seconds, and during ON time each source sends at 500Kbps", with 50-150
simultaneous sources.  Superposing many such sources yields self-similar
aggregate traffic (Willinger et al. 1995).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.paced import PACKET_SIZE
from repro.net.packet import Packet, PacketType
from repro.sim.engine import Simulator


def pareto_draw(rng: np.random.Generator, mean: float, shape: float) -> float:
    """One Pareto variate with the given mean and shape (alpha).

    For shape alpha > 1 the Pareto distribution with scale x_m has mean
    ``alpha * x_m / (alpha - 1)``, so ``x_m = mean * (alpha - 1) / alpha``.
    The heavy tail (infinite variance for alpha <= 2) is what produces
    self-similarity in the aggregate; the customary ns-2 value is 1.5.
    """
    if mean <= 0:
        raise ValueError("mean must be positive")
    if shape <= 1:
        raise ValueError("shape must exceed 1 for a finite mean")
    x_m = mean * (shape - 1.0) / shape
    # numpy's pareto() returns (X - 1) for a Lomax; (1 + draw) * x_m is the
    # classical Pareto with scale x_m.
    return float(x_m * (1.0 + rng.pareto(shape)))


class OnOffSource:
    """A single Pareto ON/OFF source sending at ``peak_rate_bps`` when ON."""

    MEAN_ON = 1.0  # seconds
    MEAN_OFF = 2.0  # seconds
    SHAPE = 1.5  # Pareto alpha of both periods: H = 0.75

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        port,
        rng: np.random.Generator,
        peak_rate_bps: float = 500e3,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self._port = port
        self._rng = rng
        self.peak_rate_bps = peak_rate_bps
        self._interval = PACKET_SIZE * 8 / peak_rate_bps
        self._seq = 0
        self._on = False
        self._running = False
        self._send_event = None
        self._phase_event = None
        self.packets_sent = 0

    def start(self, at: Optional[float] = None) -> None:
        if self._running:
            return
        self._running = True
        delay = 0.0 if at is None else max(0.0, at - self.sim.now)
        # Begin in a random phase: OFF with probability mean_off/(on+off).
        p_off = self.MEAN_OFF / (self.MEAN_ON + self.MEAN_OFF)
        if self._rng.random() < p_off:
            self._phase_event = self.sim.schedule_in(
                delay + pareto_draw(self._rng, self.MEAN_OFF, self.SHAPE),
                self._enter_on,
            )
        else:
            self._phase_event = self.sim.schedule_in(delay, self._enter_on)

    def stop(self) -> None:
        self._running = False
        for event in (self._send_event, self._phase_event):
            if event is not None:
                event.cancel()
        self._send_event = self._phase_event = None

    def _enter_on(self) -> None:
        if not self._running:
            return
        self._on = True
        duration = pareto_draw(self._rng, self.MEAN_ON, self.SHAPE)
        self._phase_event = self.sim.schedule_in(duration, self._enter_off)
        self._emit()

    def _enter_off(self) -> None:
        if not self._running:
            return
        self._on = False
        if self._send_event is not None:
            self._send_event.cancel()
            self._send_event = None
        duration = pareto_draw(self._rng, self.MEAN_OFF, self.SHAPE)
        self._phase_event = self.sim.schedule_in(duration, self._enter_on)

    def _emit(self) -> None:
        if not self._on or not self._running:
            return
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
        self._send_event = self.sim.schedule_in(self._interval, self._emit)
