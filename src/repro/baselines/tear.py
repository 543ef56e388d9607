"""TEAR: TCP Emulation At the Receivers (Ozdemir & Rhee, 1999).

The third related-work protocol of the paper's section 5: "the receiver
emulates the congestion window modifications of a TCP sender, but then
makes a translation from a window-based to a rate-based congestion control
mechanism.  The receiver maintains an exponentially weighted moving average
of the congestion window, and divides this by the estimated round-trip time
to obtain a TCP-friendly sending rate."

(The paper could not run comparative studies against TEAR for lack of
information at the time; this implementation follows the published sketch
so such comparisons are possible here.)

Receiver-side emulation:

* arrivals advance an emulated congestion window: +1 per "window" of
  arrivals in slow start, +1/cwnd per arrival in congestion avoidance;
* a detected loss (sequence gap) halves the emulated window once per
  emulated RTT-window of packets (mirroring one-reduction-per-window TCP);
* the reported rate is ``EWMA(cwnd) * PACKET_SIZE / rtt``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.paced import PACKET_SIZE, PacedSender, PacketSender
from repro.core.sender import TfrcDataInfo
from repro.net.flow import Flow, Port
from repro.net.packet import Packet, PacketType
from repro.sim.engine import Simulator
from repro.sim.process import FastTimer


class TearReport:
    """Receiver -> sender rate report."""

    __slots__ = ("rate", "echo_ts", "echo_seq")

    def __init__(self, rate: float, echo_ts: float, echo_seq: int) -> None:
        self.rate = rate
        self.echo_ts = echo_ts
        self.echo_seq = echo_seq


class TearReceiver:
    """Emulates a TCP sender's window at the receiver."""

    REPORT_SIZE = 40
    CWND_EWMA_WEIGHT = 0.1  # smoothing of the emulated window

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        send_report: PacketSender,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self._send_report = send_report
        #: ``on_data(now, packet)`` per data arrival, if set.
        self.on_data: Optional[Callable[[float, Packet], None]] = None
        self._rtt = 0.3  # until a data packet carries an RTT estimate
        self.cwnd = 2.0
        self.ssthresh = 64.0
        self.smoothed_cwnd = self.cwnd
        self._next_expected = 0
        self._window_packets = 0  # arrivals since the last emulated round
        self._reduced_this_window = False
        self._last_packet: Optional[Packet] = None
        self._report_timer = FastTimer(sim, self._report_due)
        self.packets_received = 0
        self.losses_detected = 0
        self.reports_sent = 0
        self._started = False

    # -------------------------------------------------------------- inbound

    def receive(self, packet: Packet) -> None:
        if not packet.is_data:
            return
        self.packets_received += 1
        if self.on_data is not None:
            self.on_data(self.sim._now, packet)
        info = packet.payload
        if info is not None and getattr(info, "rtt_estimate", None):
            self._rtt = info.rtt_estimate
        self._last_packet = packet
        if packet.seq > self._next_expected:
            # Sequence gap: the missing packets were lost.
            self.losses_detected += packet.seq - self._next_expected
            self._on_emulated_loss()
        if packet.seq >= self._next_expected:
            self._next_expected = packet.seq + 1
        self._on_emulated_arrival()
        if not self._started:
            self._started = True
            self._schedule_report()

    # ----------------------------------------------------- window emulation

    def _on_emulated_arrival(self) -> None:
        # Slow start: +1 per ACKed packet; congestion avoidance: +1/cwnd.
        self.cwnd += 1.0 if self.cwnd < self.ssthresh else 1.0 / self.cwnd
        self._window_packets += 1
        if self._window_packets >= self.cwnd:
            # One emulated round completed: re-arm the once-per-window
            # reduction and fold the window into the EWMA.
            self._window_packets = 0
            self._reduced_this_window = False
            self.smoothed_cwnd += self.CWND_EWMA_WEIGHT * (
                self.cwnd - self.smoothed_cwnd
            )

    def _on_emulated_loss(self) -> None:
        if self._reduced_this_window:
            return  # at most one halving per window of data (like Sack TCP)
        self._reduced_this_window = True
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = self.ssthresh
        self.smoothed_cwnd += self.CWND_EWMA_WEIGHT * (
            self.cwnd - self.smoothed_cwnd
        )

    # -------------------------------------------------------------- reports

    def rate(self) -> float:
        """The translated rate: smoothed window / RTT, in bytes/second."""
        return self.smoothed_cwnd * PACKET_SIZE / max(self._rtt, 1e-3)

    def _report_interval(self) -> float:
        return max(self._rtt, 0.05)

    def _schedule_report(self) -> None:
        self._report_timer.start(self._report_interval())

    def _report_due(self) -> None:
        if self._last_packet is not None:
            report = TearReport(
                rate=self.rate(), echo_ts=self._last_packet.sent_at,
                echo_seq=self._last_packet.seq,
            )
            packet = Packet(
                flow_id=self.flow_id,
                seq=self._last_packet.seq,
                size=self.REPORT_SIZE,
                ptype=PacketType.FEEDBACK,
                sent_at=self.sim.now,
                payload=report,
            )
            self.reports_sent += 1
            self._send_report(packet)
        self._schedule_report()

    def stop(self) -> None:
        self._report_timer.cancel()


class TearSender(PacedSender):
    """Paces packets at the receiver-computed rate."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        send_packet: PacketSender,
    ) -> None:
        super().__init__(
            sim, flow_id, send_packet, PACKET_SIZE,
            rate=32_000.0 / 8.0, initial_rtt=0.3,  # 32 kb/s
            rtt_ewma_weight=0.1,
        )
        self.reports_received = 0

    def on_report(self, packet: Packet) -> None:
        if self._stopped or packet.ptype is not PacketType.FEEDBACK:
            return
        report = packet.payload
        if not isinstance(report, TearReport):
            return
        self.reports_received += 1
        self._sample_rtt(self.sim.now - report.echo_ts)
        self._set_rate(report.rate)

    def _data_payload(self) -> TfrcDataInfo:
        # Same piggyback format as TFRC: the receiver needs the sender's RTT.
        return TfrcDataInfo(self._rtt_or_default())


class TearFlow(Flow):
    """Convenience wiring of a TEAR sender/receiver over two ports."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        forward_port: Port,
        reverse_port: Port,
    ) -> None:
        sender = TearSender(sim, flow_id, forward_port.send)
        receiver = TearReceiver(sim, flow_id, reverse_port.send)
        super().__init__(
            sim, flow_id, forward_port, reverse_port,
            sender, receiver, sender.on_report,
        )

    def stop(self) -> None:
        super().stop()
        self.receiver.stop()
