"""Web-like short TCP connections ("mice").

Figure 14's scenario reserves "20% of the link bandwidth ... used by
short-lived background TCP traffic".  This source launches short TCP
transfers (Pareto-distributed sizes, Poisson arrivals) that each run our
real TCP implementation, so the background load is congestion-responsive
like real web traffic.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.sim.engine import Simulator
from repro.tcp.flow import TcpFlow
from repro.traffic.onoff import pareto_draw

PortPairFactory = Callable[[str], tuple]


class WebTrafficSource:
    """Poisson arrivals of short TCP transfers.

    Args:
        port_pair_factory: maps a fresh flow id to ``(forward, reverse)``
            ports attached to the topology under test.
        arrival_rate: new connections per second.
        mean_size_packets: mean transfer size (Pareto, shape ``SIZE_SHAPE``
            -- heavy tails per the web-traffic literature the paper cites).
    """

    SIZE_SHAPE = 1.5
    MAX_CONCURRENT = 200  # safety valve bounding simultaneous connections

    def __init__(
        self,
        sim: Simulator,
        port_pair_factory: PortPairFactory,
        rng: np.random.Generator,
        arrival_rate: float = 10.0,
        mean_size_packets: float = 20.0,
    ) -> None:
        if arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        self.sim = sim
        self._factory = port_pair_factory
        self._rng = rng
        self.arrival_rate = arrival_rate
        self.mean_size_packets = mean_size_packets
        self._running = False
        self._next_id = 0
        self._active: List[TcpFlow] = []
        self.connections_started = 0
        self.connections_completed = 0
        self._arrival_event = None

    def start(self, at: Optional[float] = None) -> None:
        if self._running:
            return
        self._running = True
        delay = 0.0 if at is None else max(0.0, at - self.sim.now)
        self._arrival_event = self.sim.schedule_in(delay, self._arrive)

    def stop(self) -> None:
        self._running = False
        if self._arrival_event is not None:
            self._arrival_event.cancel()
            self._arrival_event = None
        for flow in self._active:
            flow.stop()
        self._active.clear()

    def _arrive(self) -> None:
        if not self._running:
            return
        if len(self._active) < self.MAX_CONCURRENT:
            self._launch()
        gap = self._rng.exponential(1.0 / self.arrival_rate)
        self._arrival_event = self.sim.schedule_in(gap, self._arrive)

    def _launch(self) -> None:
        flow_id = f"web-{self._next_id}"
        self._next_id += 1
        size = max(1, int(round(pareto_draw(self._rng, self.mean_size_packets, self.SIZE_SHAPE))))
        forward, reverse = self._factory(flow_id)
        flow = TcpFlow(
            self.sim,
            flow_id,
            forward,
            reverse,
            packets_to_send=size,
        )
        flow.sender.on_complete = lambda f=flow: self._finished(f)
        self._active.append(flow)
        self.connections_started += 1
        flow.start()

    def _finished(self, flow: TcpFlow) -> None:
        self.connections_completed += 1
        if flow in self._active:
            self._active.remove(flow)
