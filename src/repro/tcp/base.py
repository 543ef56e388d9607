"""Common TCP sender machinery.

:class:`TCPSender` implements everything the four variants share: the send
window, slow start and congestion avoidance, RTT sampling with Karn's rule,
the retransmission timer with exponential backoff, and bookkeeping.  Variant
behaviour on duplicate ACKs and on (partial) new ACKs is delegated to hook
methods that :mod:`tahoe`, :mod:`reno`, :mod:`newreno` and :mod:`sack`
override.

The hooks move the window state only through the transitions ``_set_cwnd``,
``_enter_recovery``, ``_exit_recovery``, ``_go_back_n`` and ``_send_new``.

The sender models a bulk (FTP-like) application by default: data is always
available until ``packets_to_send`` (if set) is exhausted.  Short web-like
connections set ``packets_to_send`` and an ``on_complete`` callback.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.net.packet import Packet, PacketType
from repro.sim.engine import Simulator
from repro.sim.process import FastTimer
from repro.sim.trace import Tracer
from repro.tcp.rto import RTOEstimator
from repro.tcp.sink import TCPAckInfo

PacketSender = Callable[[Packet], None]


class TCPSender:
    """Window-based, ACK-clocked TCP sender (base class)."""

    #: human-readable variant name, overridden by subclasses
    variant = "base"
    MAX_CWND = 10_000.0  # _open_window's ceiling; dupACK inflation may pass it
    DUPACK_THRESHOLD = 3  # duplicate ACKs that trigger fast retransmit

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        send_packet: PacketSender,
        packet_size: int = 1000,
        initial_cwnd: float = 2.0,
        initial_ssthresh: float = 64.0,
        rto_granularity: float = 0.1,
        min_rto: float = 0.2,
        rto_k: float = 4.0,
        packets_to_send: Optional[int] = None,
        on_complete: Optional[Callable[[], None]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self._send_packet = send_packet
        self.packet_size = packet_size
        self.tracer = tracer
        self.packets_to_send = packets_to_send
        self.on_complete = on_complete
        self._completed = False

        self.cwnd = float(initial_cwnd)
        # Bounding the initial slow-start like real stacks do (64 segments ~
        # a 64 KB window) avoids a pathological first overshoot on long-fat
        # paths; a larger initial_ssthresh gives classic slow start.
        self.ssthresh = float(initial_ssthresh)
        self.snd_una = 0  # oldest unacknowledged sequence number
        self.snd_nxt = 0  # next new sequence number to send
        self.dupacks = 0
        self.in_recovery = False
        self.recover = -1  # highest seq outstanding when loss was detected

        self.rto_estimator = RTOEstimator(
            granularity=rto_granularity, min_rto=min_rto, k=rto_k
        )
        self._retx_timer = FastTimer(sim, self._on_timeout)
        self._retransmitted: Set[int] = set()
        self._started = False
        self._stopped = False

        # Statistics.
        self.packets_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        self.acks_received = 0
        self.acked_resends = 0  # new data below snd_una (ROADMAP item 5)

    # ------------------------------------------------------------------ API

    def start(self) -> None:
        """Begin transmitting (call once; idempotent)."""
        if self._started:
            return
        self._started = True
        self._try_send()

    def stop(self) -> None:
        """Halt transmission and cancel timers."""
        self._stopped = True
        self._retx_timer.cancel()

    @property
    def outstanding(self) -> int:
        """Packets in flight according to cumulative state."""
        return self.snd_nxt - self.snd_una

    @property
    def is_complete(self) -> bool:
        return self._completed

    # ------------------------------------------------------- ACK processing

    def on_ack(self, packet: Packet) -> None:
        """Process one arriving ACK packet."""
        if self._stopped or packet.ptype is not PacketType.ACK:
            return
        info = packet.payload
        if not isinstance(info, TCPAckInfo):
            raise TypeError(f"ACK for {self.flow_id} lacks TCPAckInfo payload")
        self.acks_received += 1
        ack_seq = packet.seq

        self._sample_rtt(info)
        self._register_sack(info)

        snd_una = self.snd_una
        if ack_seq > snd_una:
            newly_acked = ack_seq - snd_una
            self.snd_una = ack_seq
            self.dupacks = 0
            if self._retransmitted:
                # Karn bookkeeping exists only after a retransmission.
                self._retransmitted.difference_update(range(snd_una, ack_seq))
            if not self.in_recovery:
                self._open_window(newly_acked)
            elif ack_seq > self.recover:
                self._exit_recovery()
            else:
                self.on_partial_ack(ack_seq, newly_acked)
            self._restart_timer()
        elif ack_seq == snd_una and self.snd_nxt > snd_una:
            self.dupacks += 1
            if self.in_recovery:
                self.on_recovery_dupack()
            elif self.dupacks == self.DUPACK_THRESHOLD:
                self.fast_retransmits += 1
                self.on_dupack_threshold()
        self._check_complete()
        self._try_send()

    def _sample_rtt(self, info: TCPAckInfo) -> None:
        # Karn's rule: never sample from a retransmitted segment.
        if info.echo_seq in self._retransmitted:
            return
        rtt = self.sim._now - info.echo_ts
        if rtt > 0:
            self.rto_estimator.sample(rtt)

    def _register_sack(self, info: TCPAckInfo) -> None:
        """Record SACK information; only the SACK variant uses it."""

    # ----------------------------------------------------- variant hooks

    def on_dupack_threshold(self) -> None:
        """Third dupACK outside recovery: enter recovery or go back N."""
        raise NotImplementedError

    def on_recovery_dupack(self) -> None:
        """Duplicate ACK while already in recovery."""

    def on_partial_ack(self, ack_seq: int, newly_acked: int) -> None:
        """New ACK below ``recover`` while in recovery (default: exit)."""
        self._exit_recovery()

    def on_timeout_reset(self) -> None:
        """Variant hook to clear recovery state on a timeout."""

    # ---------------------------------------------------------- transitions

    def _set_cwnd(self, value: float) -> None:
        """Every ``cwnd`` write after ``__init__``; floored at one packet."""
        self.cwnd = max(1.0, value)

    def _enter_recovery(self) -> None:
        """Halve, and recover until everything sent so far is ACKed."""
        self.halve_window()
        self.in_recovery = True
        self.recover = self.snd_nxt - 1

    def _exit_recovery(self) -> None:
        self.in_recovery = False
        self.dupacks = 0
        self._set_cwnd(self.ssthresh)

    def _go_back_n(self) -> None:
        """Resend the head from cwnd 1; the rest goes again as new data."""
        self.halve_window()
        self._set_cwnd(1.0)
        self.dupacks = 0
        self.retransmit_head()
        self.snd_nxt = self.snd_una + 1

    def _send_new(self) -> None:
        """Send segment ``snd_nxt`` and advance it."""
        seq = self.snd_nxt
        if seq < self.snd_una:
            self.acked_resends += 1
        self._transmit(seq)
        self.snd_nxt = seq + 1

    # --------------------------------------------------------- window math

    def _open_window(self, newly_acked: int) -> None:
        """Normal (non-recovery) window growth for one arriving ACK.

        Growth is per-ACK ("ACK counting"), not per acknowledged packet --
        the standard behaviour that makes delayed ACKs slow window growth.
        """
        cwnd = self.cwnd
        cwnd += 1.0 if cwnd < self.ssthresh else 1.0 / cwnd
        self._set_cwnd(min(cwnd, self.MAX_CWND))

    def halve_window(self) -> None:
        """ssthresh <- max(flight/2, 2); used on loss detection."""
        self.ssthresh = max(self.outstanding / 2.0, 2.0)

    def _window_allows(self) -> bool:
        return self.snd_nxt - self.snd_una < int(self.cwnd)

    # ------------------------------------------------------------- sending

    def _more_data_available(self) -> bool:
        if self.packets_to_send is None:
            return True
        return self.snd_nxt < self.packets_to_send

    def _try_send(self) -> None:
        if self._stopped or not self._started:
            return
        while self._window_allows() and self._more_data_available():
            self._send_new()

    def _transmit(self, seq: int, is_retransmission: bool = False) -> None:
        now = self.sim._now
        packet = Packet(
            self.flow_id, seq, self.packet_size, PacketType.DATA, now
        )
        if is_retransmission:
            self.retransmissions += 1
            self._retransmitted.add(seq)
        self.packets_sent += 1
        if self.tracer is not None:
            self.tracer.record(
                now, "send", self.flow_id, packet.size,
                meta={"seq": seq, "retx": is_retransmission},
            )
        if self._retx_timer._deadline is None:  # FastTimer.pending, as a field
            self._retx_timer.start(self.rto_estimator.rto)
        self._send_packet(packet)

    def retransmit_head(self) -> None:
        """Retransmit the oldest unacknowledged packet."""
        self._transmit(self.snd_una, is_retransmission=True)

    def _restart_timer(self) -> None:
        if self.snd_nxt > self.snd_una:
            self._retx_timer.start(self.rto_estimator.rto)
        else:
            self._retx_timer.cancel()

    # ------------------------------------------------------------- timeout

    def _on_timeout(self) -> None:
        if self._stopped or self.outstanding == 0:
            return
        self.timeouts += 1
        self.rto_estimator.backoff()
        self.in_recovery = False
        self.recover = -1
        self.on_timeout_reset()
        # Everything outstanding is presumed lost.
        self._go_back_n()
        self._retx_timer.start(self.rto_estimator.rto)

    # ----------------------------------------------------------- completion

    def _check_complete(self) -> None:
        if (
            not self._completed
            and self.packets_to_send is not None
            and self.snd_una >= self.packets_to_send
        ):
            self._completed = True
            self._retx_timer.cancel()
            if self.on_complete is not None:
                self.on_complete()
