"""TFRC sender: equation-driven rate control.

Responsibilities (paper sections 3.2 and 3.4):

* measure the round-trip time from feedback echoes and smooth it with an
  EWMA (weight ``rtt_ewma_weight``); derive ``t_RTO = 4 * R``;
* on every feedback packet, evaluate the control equation and set the
  allowed rate ("decrease to T" -- the option the paper adopts);
* rate-based slow start while no loss has been reported: double the rate
  each feedback interval, capped at twice the receive rate (section 3.4.1);
* pace packets with the interpacket-spacing adjustment
  ``t = (s / T) * sqrt(R0) / M`` where ``R0`` is the newest RTT sample and
  ``M`` an EWMA of ``sqrt(RTT)`` (section 3.4) -- this is the mechanism that
  damps the oscillations of Figure 3 into Figure 4, and it is togglable so
  both figures can be reproduced;
* halve the rate when no feedback arrives for a conservative number of RTTs
  (no-feedback timer), with a floor of one packet per 64 seconds.

The sender is always backlogged and sends one packet per interpacket
interval: quiescent senders are the paper's section 7 future work and
bursts a section 4.1 aside, and no figure runs either.

The pacing loop, the RTT EWMA, the floor and the record of every rate
decision are :class:`~repro.core.paced.PacedSender`'s; this module is the
TFRC policy on top.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.equations import tcp_response_rate
from repro.core.paced import PacedSender, PacketSender
from repro.core.receiver import TfrcFeedback
from repro.net.packet import Packet, PacketType
from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import FastTimer
from repro.sim.trace import Tracer


class TfrcDataInfo:
    """Payload piggybacked on TFRC data packets: the sender's RTT estimate.
    The receiver echoes the packet's ``sent_at`` as the timestamp."""

    __slots__ = ("rtt_estimate",)

    def __init__(self, rtt_estimate: float) -> None:
        self.rtt_estimate = rtt_estimate


class TfrcSender(PacedSender):
    """Sender half of the TFRC protocol."""

    INITIAL_RTT = 0.5  # seconds assumed before the first RTT sample

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        send_packet: PacketSender,
        packet_size: int = 1000,
        rtt_ewma_weight: float = 0.1,
        interpacket_adjustment: bool = True,
        tracer: Optional[Tracer] = None,
        ecn: bool = False,
    ) -> None:
        if not 0 < rtt_ewma_weight <= 1:
            raise ValueError("rtt_ewma_weight must be in (0, 1]")
        super().__init__(
            sim, flow_id, send_packet, packet_size,
            rate=packet_size / self.INITIAL_RTT, initial_rtt=self.INITIAL_RTT,
            rtt_ewma_weight=rtt_ewma_weight, tracer=tracer,
        )
        self.interpacket_adjustment = interpacket_adjustment
        #: mark data packets ECN-capable (needs an ECN-enabled RED queue).
        self.ecn = ecn

        self._sqrt_rtt_ewma: Optional[float] = None  # M in section 3.4
        #: sqrt(R0)/M of section 3.4; it changes only with an RTT sample.
        self._pacing_factor = 1.0
        self.in_slow_start = True
        # Re-armed per feedback: generation-counter timer, like the send
        # timer.
        self._no_feedback_timer = FastTimer(sim, self._no_feedback_expired)
        self.feedback_received = 0

    # ------------------------------------------------------------------ API

    def _after_start(self) -> None:
        self._arm_no_feedback_timer()

    def stop(self) -> None:
        super().stop()
        self._no_feedback_timer.cancel()

    @property
    def rate_pkts_per_rtt(self) -> float:
        """Allowed rate expressed in packets per RTT (analysis convenience)."""
        return self.rate * self._rtt_or_default() / self.packet_size

    # ------------------------------------------------------------- feedback

    def on_feedback(self, packet: Packet) -> None:
        """Process one feedback packet from the receiver.

        Always checks the report (``p`` in [0, 1], ``recv_rate >= 0``) and,
        after the update, the balance rule ``rate <= max(2 * recv_rate,
        min_rate)`` when ``recv_rate > 0``; a violation raises
        :class:`SimulationError` naming the flow and the sim-time.
        """
        if self._stopped or packet.ptype is not PacketType.FEEDBACK:
            return
        feedback = packet.payload
        if not isinstance(feedback, TfrcFeedback):
            raise TypeError(f"feedback for {self.flow_id} lacks TfrcFeedback payload")
        now = self.sim._now
        p = feedback.p
        recv_rate = feedback.recv_rate
        if not (0.0 <= p <= 1.0 and recv_rate >= 0.0):
            raise SimulationError(
                f"flow {self.flow_id}: feedback at t={now!r} reports "
                f"p={p!r}, recv_rate={recv_rate!r} (need p in [0, 1], "
                f"recv_rate >= 0)"
            )
        self.feedback_received += 1
        self._sample_rtt(now - feedback.echo_ts - feedback.delay)
        self._update_rate(feedback)
        if recv_rate > 0.0:
            bound = max(2.0 * recv_rate, self.min_rate)
            if self.rate > bound:
                raise SimulationError(
                    f"flow {self.flow_id}: rate {self.rate!r} B/s after "
                    f"feedback at t={now!r} exceeds max(2 * recv_rate, "
                    f"min_rate) = {bound!r} B/s"
                )
        self._arm_no_feedback_timer()

    def _sample_rtt(self, rtt: float) -> None:
        """Also fold R0 into M and refresh the pacing adjustment."""
        if rtt <= 0:
            return
        super()._sample_rtt(rtt)
        root = math.sqrt(rtt)
        if self._sqrt_rtt_ewma is None:
            self._sqrt_rtt_ewma = root
        else:
            self._sqrt_rtt_ewma += self.rtt_ewma_weight * (
                root - self._sqrt_rtt_ewma
            )
        self._pacing_factor = (
            root / self._sqrt_rtt_ewma if self._sqrt_rtt_ewma > 0 else 1.0
        )

    def _update_rate(self, feedback: TfrcFeedback) -> None:
        rtt = self._rtt_or_default()
        if feedback.p <= 0:
            # No loss yet: rate-based slow start, bounded by the receive rate
            # so overshoot is no worse than TCP's (section 3.4.1).
            doubled = 2.0 * self.rate
            cap = 2.0 * feedback.recv_rate if feedback.recv_rate > 0 else doubled
            self.in_slow_start = True
            self._set_rate(min(doubled, cap))
        else:
            self.in_slow_start = False
            t_eq = tcp_response_rate(
                packet_size=self.packet_size,
                rtt=rtt,
                p=feedback.p,
                t_rto=4.0 * rtt,
            )
            allowed = t_eq
            if feedback.recv_rate > 0:
                allowed = min(allowed, 2.0 * feedback.recv_rate)
            # "Decrease to T" / increase to T: the sender tracks the control
            # equation directly; damping lives in the loss measurement.
            self._set_rate(allowed)

    # -------------------------------------------------------------- pacing

    def _interpacket_interval(self) -> float:
        base = self.packet_size / self.rate
        if self.interpacket_adjustment:
            # t = s/T * sqrt(R0)/M: instantaneous-delay sensitivity with
            # less than proportional gain (section 3.4).
            base *= self._pacing_factor
        return base

    def _send_next(self) -> None:
        """The base's pacing step plus what only TFRC has: ECN marking and
        the per-packet ``"send"`` record."""
        if self._stopped:
            return
        now = self.sim._now
        rtt = self.srtt if self.srtt is not None else self.initial_rtt
        seq = self._seq
        size = self.packet_size
        packet = Packet(
            self.flow_id, seq, size, PacketType.DATA, now,
            TfrcDataInfo(rtt), self.ecn,
        )
        self._seq = seq + 1
        self.packets_sent += 1
        if self.tracer is not None:
            self.tracer.record(now, "send", self.flow_id, size, meta={"seq": seq})
        self._send_packet(packet)
        self._send_timer.start(self._interpacket_interval())

    # ---------------------------------------------------- no-feedback timer

    def _no_feedback_interval(self) -> float:
        rtt = self._rtt_or_default()
        return max(4.0 * rtt, 2.0 * self.packet_size / self.rate)

    def _arm_no_feedback_timer(self) -> None:
        self._no_feedback_timer.start(self._no_feedback_interval())

    def _no_feedback_expired(self) -> None:
        if self._stopped:
            return
        # Halve the sending rate; repeated expiries walk it down to the
        # one-packet-per-64s floor, i.e. the sender ultimately goes quiet.
        self.in_slow_start = False
        self._set_rate(self.rate / 2.0)
        self._arm_no_feedback_timer()
