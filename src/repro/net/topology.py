"""Dumbbell topology builder.

The paper's fairness and smoothness experiments (Figures 6-14) all use the
"well-known single bottleneck (dumbbell) scenario" with provisioned access
links, so that drops occur only at the bottleneck.  This module builds that
topology:

* one shared forward bottleneck link (configurable bandwidth, delay, queue
  discipline),
* one shared reverse link for ACK/feedback traffic (normally uncongested,
  but usable for reverse-path traffic as in Figure 14),
* per-flow access segments implemented as pure delays (access links are
  provisioned by construction, matching the paper's setup), sized so each
  flow hits its target base RTT.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import Dict, Optional, Tuple

import numpy as np

from repro.net.link import Link, Receiver
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue, Queue, REDQueue
from repro.sim.engine import Simulator
from repro.sim.rng import BlockDraws


#: per-packet access-segment processing jitter bound, seconds
#: (anti-phase-effect): ~2 bottleneck packet times on the paper's 15 Mb/s
#: link.
ACCESS_JITTER = 0.001


@dataclass
class DumbbellConfig:
    """Parameters of the dumbbell bottleneck.

    Defaults mirror the paper's steady-state scenario (section 4.1.2
    footnote): 15 Mb/s bottleneck, 50 ms one-way bottleneck delay,
    1000-byte packets, RED with gentle, buffer 100 packets, minthresh 10,
    maxthresh 50.  RED's ``max_p``, ``weight`` and ``gentle`` are
    :class:`~repro.net.queues.REDQueue`'s defaults; the reverse link runs at
    the forward bandwidth with a 1000-packet DropTail buffer.  The access
    jitter is the constant :data:`ACCESS_JITTER`, not a field: every run
    uses it.
    """

    bandwidth_bps: float = 15e6
    delay: float = 0.050
    queue_type: str = "red"  # "red" or "droptail"
    buffer_packets: int = 100
    red_min_thresh: float = 10
    red_max_thresh: float = 50

    def build_queue(self, rng: Optional[np.random.Generator] = None) -> Queue:
        """Instantiate the configured forward queue discipline; RED draws
        from ``rng``, else from a fixed-seed stream."""
        if self.queue_type == "droptail":
            return DropTailQueue(self.buffer_packets, name="bottleneck-q")
        if self.queue_type == "red":
            return REDQueue(
                self.buffer_packets,
                min_thresh=self.red_min_thresh,
                max_thresh=self.red_max_thresh,
                rng=rng if rng is not None else np.random.default_rng(7),
                name="bottleneck-red",
            )
        raise ValueError(f"unknown queue type {self.queue_type!r}")


class FlowPort:
    """One direction of a flow's attachment to the dumbbell.

    ``send`` injects a packet after the flow's ingress access delay plus a
    draw from ``jitter_stream`` (uniform on ``[0, ACCESS_JITTER)``: every
    port jitters); packets addressed to this flow that exit the shared link
    are delivered to the callback registered with ``connect`` after the
    egress access delay.
    """

    def __init__(
        self,
        sim: Simulator,
        shared_link: Link,
        ingress_delay: float,
        egress_delay: float,
        jitter_stream: BlockDraws,
    ) -> None:
        self._sim = sim
        self._link = shared_link
        self.ingress_delay = ingress_delay
        self.egress_delay = egress_delay
        #: per-packet ingress jitter draws, bounded by the stream's ``high``.
        #: One instance is shared by every port of a topology: draw order
        #: across ports is the event order, which is deterministic.
        self._jitter_stream = jitter_stream
        self._last_ingress_arrival = 0.0
        self._receiver: Optional[Receiver] = None
        self._link_send = shared_link.send  # per-packet hoist

    def connect(self, receiver: Receiver) -> None:
        self._receiver = receiver

    def send(self, packet: Packet) -> bool:
        # Small random processing jitter.  Deterministic simulators
        # otherwise exhibit phase effects: window-based (ACK-clocked)
        # arrivals synchronize with bottleneck departures while paced
        # arrivals do not, skewing DropTail drop probabilities.  The jitter
        # is clamped so packets of one flow never reorder: clamping to the
        # previous arrival plus heap FIFO keeps per-flow order even when a
        # later packet draws a smaller jitter.
        sim = self._sim
        arrival = sim._now + (self.ingress_delay + self._jitter_stream.next())
        if arrival < self._last_ingress_arrival:
            arrival = self._last_ingress_arrival
        self._last_ingress_arrival = arrival
        # Schedule at the *absolute* arrival time: recomputing now + (arrival
        # - now) loses bits and can invert the order of two equal arrivals.
        # Access-segment handoffs are never cancelled, so they need no Event
        # handle: a straight heap push (schedule_fast minus the range
        # check; the clamp above keeps arrival >= now by construction).
        heappush(sim._heap, (arrival, sim._seq, self._link_send, (packet,), None))
        sim._seq += 1
        return True  # access links never drop; loss is at the bottleneck

    def deliver(self, packet: Packet) -> None:
        if self._receiver is None:
            return  # no sink connected (ON/OFF load): dropped at the edge
        if self.egress_delay > 0:
            sim = self._sim
            arrival = sim._now + self.egress_delay
            heappush(
                sim._heap, (arrival, sim._seq, self._receiver, (packet,), None)
            )
            sim._seq += 1
        else:
            self._receiver(packet)


class Dumbbell:
    """Shared-bottleneck topology with per-flow base RTTs."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[DumbbellConfig] = None,
        queue_rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.sim = sim
        self.config = config if config is not None else DumbbellConfig()
        # All ports draw jitter from one shared block-buffered stream, which
        # hands out the values per-packet ``rng.uniform(0, ACCESS_JITTER)``
        # calls would, in event order.
        self._jitter_stream = BlockDraws(
            np.random.default_rng(11), high=ACCESS_JITTER, block=256
        )
        cfg = self.config
        self.forward_link = Link(
            sim,
            cfg.bandwidth_bps,
            cfg.delay,
            cfg.build_queue(queue_rng),
            name="bottleneck-fwd",
        )
        if isinstance(self.forward_link.queue, REDQueue):
            # RED's idle decay needs the link speed; Link wires it up at
            # construction.  Checked unconditionally (not an assert, which
            # -O would strip) so a future refactor cannot silently
            # reintroduce the frozen-average bug at the bottleneck.
            if not self.forward_link.queue.has_service_rate:
                raise RuntimeError(
                    "bottleneck RED queue has no service rate wired up"
                )
        self.reverse_link = Link(
            sim,
            cfg.bandwidth_bps,
            cfg.delay,
            DropTailQueue(1000, name="bottleneck-rev-q"),
            name="bottleneck-rev",
        )
        self._forward_ports: Dict[str, FlowPort] = {}
        self._reverse_ports: Dict[str, FlowPort] = {}
        self.forward_link.connect(self._route_forward)
        self.reverse_link.connect(self._route_reverse)

    def _route_forward(self, packet: Packet) -> None:
        port = self._forward_ports.get(packet.flow_id)
        if port is not None:
            port.deliver(packet)

    def _route_reverse(self, packet: Packet) -> None:
        port = self._reverse_ports.get(packet.flow_id)
        if port is not None:
            port.deliver(packet)

    def attach_flow(self, flow_id: str, base_rtt: float) -> Tuple[FlowPort, FlowPort]:
        """Attach a flow with the given base (no-queueing) round-trip time.

        Returns ``(forward_port, reverse_port)``.  The residual RTT beyond
        the two bottleneck traversals is split evenly over the four access
        segments.  ``base_rtt`` smaller than twice the bottleneck delay is
        clipped (segments cannot have negative delay).
        """
        if flow_id in self._forward_ports:
            raise ValueError(f"flow {flow_id!r} already attached")
        residual = max(0.0, base_rtt - 2 * self.config.delay)
        segment = residual / 4.0
        fwd = FlowPort(
            self.sim, self.forward_link, segment, segment,
            jitter_stream=self._jitter_stream,
        )
        rev = FlowPort(
            self.sim, self.reverse_link, segment, segment,
            jitter_stream=self._jitter_stream,
        )
        self._forward_ports[flow_id] = fwd
        self._reverse_ports[flow_id] = rev
        return fwd, rev
