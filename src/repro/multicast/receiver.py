"""Multicast TFRC receiver.

Reuses the unicast receiver's loss machinery (ALI + loss-event detection)
but, per section 6, the *receiver* calculates the allowed rate ("for
multicast, it makes sense for the receiver to determine the relevant
parameters and calculate the allowed sending rate", section 3.1) and only
reports it when its suppression timer wins the round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.equations import tcp_response_rate
from repro.core.loss_events import LossEventDetector
from repro.core.loss_intervals import AverageLossIntervals
from repro.net.packet import Packet, PacketType
from repro.sim.engine import Simulator
from repro.multicast.suppression import FeedbackSuppression


@dataclass
class MulticastReport:
    """Payload of a multicast receiver report."""

    receiver_id: str
    calculated_rate: float  # bytes/second the control equation allows
    p: float
    rtt_estimate: float


class MulticastReceiver:
    """One member of the multicast group."""

    REPORT_SIZE = 40

    def __init__(
        self,
        sim: Simulator,
        receiver_id: str,
        send_report: Callable[[Packet], None],
        rng: np.random.Generator,
        packet_size: int = 1000,
        round_duration: float = 1.0,
    ) -> None:
        self.sim = sim
        self.receiver_id = receiver_id
        self._send_report = send_report
        self.packet_size = packet_size
        #: ``on_data(now, packet)`` per data arrival, if set.
        self.on_data: Optional[Callable[[float, Packet], None]] = None
        self._rtt = 0.3  # until a data packet carries an RTT estimate
        self.intervals = AverageLossIntervals()
        self.detector = LossEventDetector(
            rtt_fn=lambda: self._rtt, on_event=self._on_loss_event
        )
        self.suppression = FeedbackSuppression(
            sim,
            send_report=self._emit_report,
            rate_fn=self.calculated_rate,
            rng=rng,
            round_duration=round_duration,
        )
        self._last_seq: Optional[int] = None
        self.packets_received = 0
        self.reports_sent = 0

    # ------------------------------------------------------------- inbound

    def receive(self, packet: Packet) -> None:
        """Handle one multicast data packet."""
        if not packet.is_data:
            return
        self.packets_received += 1
        info = packet.payload
        if info is not None and getattr(info, "rtt_estimate", None):
            # The sender multicasts its current RTT-proxy for event grouping.
            self._rtt = info.rtt_estimate
        if self.on_data is not None:
            self.on_data(self.sim.now, packet)
        previous_open = self.detector.open_interval_packets()
        self.detector.on_arrival(packet.seq, self.sim.now)
        current_open = self.detector.open_interval_packets()
        if current_open > previous_open and self.detector.events:
            self.intervals.on_packet(current_open - previous_open)
        elif not self.detector.events:
            self.intervals.on_packet(1.0)
        self._last_seq = packet.seq

    def _on_loss_event(self, event) -> None:
        self.intervals.on_loss_event(event.closed_interval)

    # ------------------------------------------------------------- reports

    def loss_event_rate(self) -> float:
        return self.intervals.loss_event_rate()

    def calculated_rate(self) -> float:
        """The allowed rate this receiver's path supports, bytes/second."""
        p = self.loss_event_rate()
        if p <= 0:
            # No loss seen yet: report a high rate so we never suppress a
            # genuinely constrained receiver.
            return 1e9
        rate = tcp_response_rate(
            self.packet_size, self._rtt, p, t_rto=4.0 * self._rtt
        )
        return rate

    def start_round(self) -> None:
        self.suppression.start_round()

    def on_heard_report(self, report: MulticastReport) -> None:
        if report.receiver_id != self.receiver_id:
            self.suppression.on_heard_report(report.calculated_rate)

    def _emit_report(self) -> None:
        report = MulticastReport(
            receiver_id=self.receiver_id,
            calculated_rate=self.calculated_rate(),
            p=self.loss_event_rate(),
            rtt_estimate=self._rtt,
        )
        packet = Packet(
            flow_id=self.receiver_id,
            seq=self._last_seq if self._last_seq is not None else 0,
            size=self.REPORT_SIZE,
            ptype=PacketType.FEEDBACK,
            sent_at=self.sim.now,
            payload=report,
        )
        self.reports_sent += 1
        self._send_report(packet)

    def stop(self) -> None:
        self.suppression.cancel()
