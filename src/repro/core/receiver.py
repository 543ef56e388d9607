"""TFRC receiver: loss event rate estimation and feedback generation.

The receiver (paper section 3.3):

* detects loss events from sequence gaps, coalescing losses within one RTT
  (:mod:`~repro.core.loss_events`),
* maintains the Average Loss Interval history and reports
  ``p = 1 / average interval``,
* measures the rate at which data arrived over the last RTT (used by the
  sender's slow-start cap, section 3.4.1),
* sends one feedback packet per round-trip time, plus an expedited report
  whenever a *new* loss event is detected,
* seeds the loss history with a synthetic interval when the first loss ends
  slow start, derived by inverting the control equation at half the receive
  rate at that moment (section 3.4.1),
* checks the loss history after every interval close (one check per loss
  event, none per packet) and raises :class:`SimulationError` when it is
  malformed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Tuple

from repro.core.equations import invert_response
from repro.core.loss_events import LossEvent, LossEventDetector
from repro.core.loss_intervals import AverageLossIntervals
from repro.net.packet import Packet, PacketType
from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import FastTimer

FeedbackSender = Callable[[Packet], None]


@dataclass
class TfrcFeedback:
    """Payload of a TFRC feedback packet.

    Attributes:
        echo_ts: send timestamp of the most recent data packet received.
        echo_seq: its sequence number.
        delay: time the receiver held that packet before sending feedback
            (subtracted by the sender when measuring the RTT).
        p: the receiver's current loss event rate estimate.
        recv_rate: bytes/second received over the last measurement interval.
        expedited: True when triggered by a new loss event rather than the
            regular per-RTT timer.
    """

    echo_ts: float
    echo_seq: int
    delay: float
    p: float
    recv_rate: float
    expedited: bool = False


def _wali_history_problem(history: AverageLossIntervals) -> Optional[str]:
    """What is wrong with ``history``, or None when it is well formed:

    * intervals and discounts are parallel and hold at most ``n`` entries;
    * every interval is finite and >= 1;
    * every discount is in (0, 1], and the newest is 1.0.

    The weights are positive, so these imply that the discounted weight
    sum(w_i * d_i) is in (0, sum(w_i)]; it is not checked again.
    """
    intervals, discounts = history.history, history.discounts
    if len(intervals) != len(discounts) or len(intervals) > history.n:
        return (
            f"holds {len(intervals)} intervals and {len(discounts)} "
            f"discounts (n={history.n})"
        )
    for slot, (interval, discount) in enumerate(zip(intervals, discounts)):
        if not (math.isfinite(interval) and interval >= 1.0):
            return f"slot {slot}: interval {interval!r} is not finite and >= 1"
        if not 0.0 < discount <= 1.0:
            return f"slot {slot}: discount {discount!r} is outside (0, 1]"
    if discounts and discounts[0] != 1.0:
        return f"slot 0: newest discount {discounts[0]!r} is not 1.0"
    return None


class TfrcReceiver:
    """Receiver half of the TFRC protocol."""

    FEEDBACK_SIZE = 40  # bytes

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        send_feedback: FeedbackSender,
        packet_size: int = 1000,
        history_discounting: bool = True,
        on_data: Optional[Callable[[float, Packet], None]] = None,
        feedback_interval_rtts: float = 1.0,
    ) -> None:
        if feedback_interval_rtts <= 0:
            raise ValueError("feedback_interval_rtts must be positive")
        self.sim = sim
        self.flow_id = flow_id
        self._send_feedback = send_feedback
        self.packet_size = packet_size
        self.on_data = on_data
        #: report every this-many RTTs.  The paper's design goal (section 3)
        #: is at least once per RTT (1.0, the default); larger values are
        #: for the feedback-frequency ablation only.
        self.feedback_interval_rtts = feedback_interval_rtts
        self.intervals = AverageLossIntervals(discounting=history_discounting)
        self.detector = LossEventDetector(
            rtt_fn=self._current_rtt, on_event=self._on_new_loss_event
        )
        self._rtt_from_sender = 0.0
        self._last_packet: Optional[Packet] = None
        self._last_packet_recv_time = 0.0
        self._feedback_timer = FastTimer(sim, self._feedback_due)
        # Receive-rate window: arrivals are pruned incrementally from the
        # left and the byte total is a running (exact, integer) sum, so the
        # per-feedback cost is amortized O(1).
        self._arrivals: Deque[Tuple[float, int]] = deque()
        self._arrival_bytes = 0
        self._history_seeded = False
        self.feedback_sent = 0
        self.first_packet_seen = False

    # ------------------------------------------------------------- helpers

    def _current_rtt(self) -> float:
        return self._rtt_from_sender

    def _measurement_window(self) -> float:
        """Receive-rate window: one RTT, with a sane floor."""
        return max(self._rtt_from_sender, 0.05)

    def receive_rate(self) -> float:
        """Bytes/second received over the last measurement window."""
        window = self._measurement_window()
        cutoff = self.sim._now - window
        arrivals = self._arrivals
        while arrivals and arrivals[0][0] < cutoff:
            self._arrival_bytes -= arrivals.popleft()[1]
        return self._arrival_bytes / window

    def loss_event_rate(self) -> float:
        return self.intervals.loss_event_rate()

    # -------------------------------------------------------------- arrival

    def receive(self, packet: Packet) -> None:
        """Handle one arriving data packet."""
        if packet.ptype is not PacketType.DATA:
            return
        now = self.sim._now
        seq = packet.seq
        size = packet.size
        rtt_estimate = getattr(packet.payload, "rtt_estimate", None)
        if rtt_estimate is not None:
            self._rtt_from_sender = rtt_estimate
        on_data = self.on_data
        if on_data is not None:
            on_data(now, packet)
        self._arrivals.append((now, size))
        self._arrival_bytes += size
        self._last_packet = packet
        self._last_packet_recv_time = now

        detector = self.detector
        if not packet.ecn_marked and detector.arrive_in_order(seq, now):
            # No event starts and the highest sequence number moved up by
            # one: the open interval grows by exactly one packet, whether or
            # not a loss event has been seen.
            self.intervals.on_packet(1.0)
        else:
            previous_open = detector.open_interval_packets()
            if packet.ecn_marked:
                # ECN: a mark is a congestion signal without a sequence gap.
                detector.on_congestion_mark(seq, now)
            detector.on_arrival(seq, now)
            # Keep the ALI open-interval synchronized with the detector's
            # view (sequence-space accounting survives reordering and burst
            # arrivals).
            current_open = detector.open_interval_packets()
            if current_open > previous_open and detector.events:
                self.intervals.on_packet(current_open - previous_open)
            elif not detector.events:
                self.intervals.on_packet(1.0)

        if not self.first_packet_seen:
            self.first_packet_seen = True
            self._send_report(expedited=False)
            self._schedule_feedback()

    def _on_new_loss_event(self, event: LossEvent) -> None:
        if not self._history_seeded:
            self._seed_history()
        self.intervals.on_loss_event(event.closed_interval)
        self._check_history()
        # Expedited feedback: tell the sender about new congestion promptly.
        self._send_report(expedited=True)
        self._schedule_feedback()

    def _check_history(self) -> None:
        """Raise :class:`SimulationError` naming the flow, the sim-time and
        the offending slot if the WALI history is malformed."""
        problem = _wali_history_problem(self.intervals)
        if problem is not None:
            raise SimulationError(
                f"flow {self.flow_id}: WALI history {problem} at "
                f"t={self.sim._now!r}"
            )

    def _seed_history(self) -> None:
        """First-ever loss: fabricate the slow-start loss interval.

        Half the current receive rate is assumed to be the correct rate
        (section 3.4.1); the control-equation inverse maps it to a loss event
        rate whose reciprocal seeds the interval history.
        """
        self._history_seeded = True
        rate = self.receive_rate()
        rtt = max(self._rtt_from_sender, 1e-3)
        if rate <= 0:
            return
        p = invert_response(
            packet_size=self.packet_size,
            rtt=rtt,
            target_rate=rate / 2.0,
            t_rto=4.0 * rtt,
        )
        if p > 0:
            self.intervals.seed(max(1.0, 1.0 / p))

    # ------------------------------------------------------------- feedback

    def _schedule_feedback(self) -> None:
        self._feedback_timer.start(
            self.feedback_interval_rtts * self._measurement_window()
        )

    def _feedback_due(self) -> None:
        # Report only if we received anything since the last report was due
        # (the paper: feedback at least once per RTT *if* packets arrived).
        # The epsilon absorbs float round-off when an arrival lands exactly
        # one window ago.
        window = self.feedback_interval_rtts * self._measurement_window()
        cutoff = self.sim._now - window - 1e-9
        if self._arrivals and self._arrivals[-1][0] >= cutoff:
            self._send_report(expedited=False)
        self._schedule_feedback()

    def _send_report(self, expedited: bool) -> None:
        """Send one report; a ``p`` outside [0, 1] (NaN included) raises
        :class:`SimulationError` naming the flow and the sim-time."""
        last = self._last_packet
        if last is None:
            return
        now = self.sim._now
        p = self.loss_event_rate()
        if not 0.0 <= p <= 1.0:
            raise SimulationError(
                f"flow {self.flow_id}: loss event rate {p!r} at t={now!r} "
                f"is outside [0, 1]"
            )
        feedback = TfrcFeedback(
            echo_ts=last.sent_at,
            echo_seq=last.seq,
            delay=now - self._last_packet_recv_time,
            p=p,
            recv_rate=self.receive_rate(),
            expedited=expedited,
        )
        packet = Packet(
            flow_id=self.flow_id,
            seq=last.seq,
            size=self.FEEDBACK_SIZE,
            ptype=PacketType.FEEDBACK,
            sent_at=now,
            payload=feedback,
        )
        self.feedback_sent += 1
        self._send_feedback(packet)

    def stop(self) -> None:
        """Cancel timers (end of simulation)."""
        self._feedback_timer.cancel()
