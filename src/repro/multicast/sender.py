"""Multicast TFRC sender.

Paces data to the whole group at the minimum of the receivers' reported
allowed rates.  Differences from the unicast sender, per section 6:

* feedback arrives in *rounds* (suppression timers), not per-RTT, so the
  control loop runs on round boundaries;
* slow start is more conservative: the rate doubles per round (not per RTT)
  and stops at the first loss report from any receiver;
* heard reports are echoed to the group so other receivers can suppress
  (the sender's echo stands in for multicast visibility of reports).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.paced import PacedSender, PacketSender
from repro.core.sender import TfrcDataInfo
from repro.multicast.receiver import MulticastReport
from repro.net.packet import Packet, PacketType
from repro.sim.engine import Simulator
from repro.sim.process import FastTimer


class MulticastTfrcSender(PacedSender):
    """Single-source multicast sender driven by suppressed receiver reports."""

    def __init__(
        self,
        sim: Simulator,
        session_id: str,
        send_packet: PacketSender,
        echo_report: Optional[Callable[[MulticastReport], None]] = None,
        packet_size: int = 1000,
        round_duration: float = 1.0,
    ) -> None:
        # Starts at 2 kB/s.  No RTT is ever sampled (receivers' clocks are
        # not synchronised): a 0.3 s proxy stands in for it on every data
        # packet.
        super().__init__(
            sim, session_id, send_packet, packet_size,
            rate=2000.0, initial_rtt=0.3, rtt_ewma_weight=0.0,
        )
        self.session_id = session_id
        self._echo_report = echo_report
        self.round_duration = round_duration
        self.in_slow_start = True
        self._round_timer = FastTimer(sim, self._round_boundary)
        self._round_minimum: Optional[float] = None
        self.reports_received = 0
        self.on_round_start: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------ lifecycle

    def _after_start(self) -> None:
        self._round_timer.start(self.round_duration)
        if self.on_round_start is not None:
            self.on_round_start()

    def stop(self) -> None:
        super().stop()
        self._round_timer.cancel()

    # ------------------------------------------------------------- reports

    def on_report(self, packet: Packet) -> None:
        """A receiver's (suppression-winning) report reached the sender."""
        if self._stopped or packet.ptype is not PacketType.FEEDBACK:
            return
        report = packet.payload
        if not isinstance(report, MulticastReport):
            return
        self.reports_received += 1
        if report.p > 0:
            self.in_slow_start = False
        if self._round_minimum is None or report.calculated_rate < self._round_minimum:
            self._round_minimum = report.calculated_rate
        if self._echo_report is not None:
            self._echo_report(report)

    def _round_boundary(self) -> None:
        """End of a feedback round: adapt the rate, start the next round."""
        if self._round_minimum is not None and not self.in_slow_start:
            self._set_rate(self._round_minimum)
        elif self.in_slow_start:
            if self._round_minimum is not None:
                # Cap the doubling at the most constrained receiver's rate.
                self._set_rate(min(2.0 * self.rate, self._round_minimum))
            else:
                self._set_rate(2.0 * self.rate)
        else:
            # No feedback round: halve, like the unicast no-feedback timer.
            self._set_rate(self.rate / 2.0)
        self._round_minimum = None
        if self.on_round_start is not None:
            self.on_round_start()
        if not self._stopped:
            self._round_timer.start(self.round_duration)

    # -------------------------------------------------------------- pacing

    def _data_payload(self) -> TfrcDataInfo:
        return TfrcDataInfo(self._rtt_or_default())
