"""Controlled-loss paths.

:class:`LossyPath` is an ideal fixed-delay pipe with a programmable loss
model -- Bernoulli, deterministic every-Nth, or a time-varying schedule --
which the protocol-mechanics figures (2, 19, 20, 21) use to impose exact
loss patterns, exactly as the paper's appendix simulations do.
"""

from __future__ import annotations

from heapq import heappush
from math import isfinite
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.net.link import Receiver
from repro.net.packet import Packet
from repro.sim.engine import _FMAX, Simulator
from repro.sim.rng import BlockDraws


LossModel = Callable[[Packet, float], bool]
"""A loss model maps ``(packet, now)`` to True when the packet is dropped."""


def bernoulli_loss(
    probability: float, rng: Union[np.random.Generator, BlockDraws]
) -> LossModel:
    """Drop each packet independently with ``probability``.

    A generator is drawn from once per packet.  A :class:`BlockDraws` over
    one hands out the same values block-buffered, so it is the cheaper form
    when nothing else draws from that generator; models that share a
    generator each take it raw (or share one ``BlockDraws``), since two
    buffers over one generator would reorder its draws.
    """
    if not 0 <= probability < 1:
        raise ValueError("loss probability must be in [0, 1)")
    draw = rng.next if isinstance(rng, BlockDraws) else rng.random

    def model(packet: Packet, now: float) -> bool:
        return draw() < probability

    return model


def periodic_loss(period: int, offset: int = 0) -> LossModel:
    """Drop every ``period``-th packet deterministically.

    With ``period=100`` this reproduces the appendix scenario "every 100th
    packet dropped".  Only data packets are counted.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    counter = {"n": offset}

    def model(packet: Packet, now: float) -> bool:
        if not packet.is_data:
            return False
        counter["n"] += 1
        return counter["n"] % period == 0

    return model


def scheduled_loss(schedule: Sequence[Tuple[float, LossModel]]) -> LossModel:
    """Switch between loss models over time.

    ``schedule`` is a list of ``(start_time, model)`` pairs in increasing
    start-time order; the model whose start time most recently passed is
    active, and nothing drops before the first start time (no model sees
    those packets).  Used for Figure 2's 1% -> 10% -> 0.5% pattern and
    Figure 20's switch to persistent congestion at t=10.
    """
    if not schedule:
        raise ValueError("schedule must not be empty")
    times = [t for t, _ in schedule]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("schedule start times must be strictly increasing")

    def model(packet: Packet, now: float) -> bool:
        active = None
        for start, candidate in schedule:
            if now < start:
                break
            active = candidate
        return active is not None and active(packet, now)

    return model


class LossyPath:
    """An ideal fixed-delay pipe with an explicit loss model.

    There is no queue, so congestion loss never occurs here; losses come
    only from the model.  This isolates the protocol mechanics under study
    from queue dynamics -- the methodology of the paper's Figures 2 and
    19-21.

    When ``bandwidth_bps`` is set the pipe serializes packets one after
    another (an unbounded FIFO): delivery cannot exceed the configured
    rate, and overdriving the pipe shows up as growing delay -- which is
    what makes the slow-start receive-rate cap observable on this path.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        loss_model: Optional[LossModel] = None,
        bandwidth_bps: Optional[float] = None,
        name: str = "lossy-path",
    ) -> None:
        # `not (x > 0)`, not `x <= 0`: every comparison is false for NaN.
        if not (isfinite(delay) and delay >= 0):
            raise ValueError(
                f"path {name}: delay must be finite and >= 0, got {delay!r}"
            )
        if bandwidth_bps is not None and not (
            isfinite(bandwidth_bps) and bandwidth_bps > 0
        ):
            raise ValueError(
                f"path {name}: bandwidth_bps must be finite and > 0, "
                f"got {bandwidth_bps!r}"
            )
        self.sim = sim
        self.delay = float(delay)
        self.loss_model = loss_model
        self.bandwidth_bps = bandwidth_bps
        self.name = name
        self._receiver: Optional[Receiver] = None
        self._busy_until = 0.0
        self.packets_sent = 0
        self.packets_dropped = 0

    def connect(self, receiver: Receiver) -> None:
        self._receiver = receiver

    def send(self, packet: Packet) -> bool:
        receiver = self._receiver
        if receiver is None:
            raise RuntimeError(f"path {self.name} has no receiver connected")
        self.packets_sent += 1
        sim = self.sim
        now = sim._now
        loss_model = self.loss_model
        if loss_model is not None and loss_model(packet, now):
            self.packets_dropped += 1
            return False
        departure = now
        if self.bandwidth_bps:
            serialization = packet.size * 8 / self.bandwidth_bps
            departure = max(now, self._busy_until) + serialization
            self._busy_until = departure
        # Nobody cancels a delivery: the handle-free entry, range check and
        # sequence number ``Simulator.schedule_fast`` would push.
        arrival = departure + self.delay
        if not (now <= arrival <= _FMAX):
            sim._check_time(arrival)
        heappush(sim._heap, (arrival, sim._seq, receiver, (packet,), None))
        sim._seq += 1
        return True
