"""The TCP sender: ns-2 "Sack1"-style SACK TCP.

This is the TCP the paper's simulations compare TFRC with ("TFRC vs TCP
Sack1").  :class:`TCPSender` holds the send window, slow start and
congestion avoidance, RTT sampling with Karn's rule, the retransmission
timer with exponential backoff, and SACK loss recovery: a scoreboard of
SACKed sequence numbers plus a conservative estimate of the packets in the
pipe.  During recovery each arriving dupACK/SACK decrements the pipe, each
(re)transmission increments it, and packets are clocked out while
``pipe < cwnd``.  Holes (sequence numbers below the highest SACKed block
that the receiver has not reported) are retransmitted before any new data.

The window state moves only through the transitions ``_set_cwnd``,
``_enter_recovery``, ``_exit_recovery``, ``_go_back_n`` and ``_send_new``.

The sender models a bulk (FTP-like) application by default: data is always
available until ``packets_to_send`` (if set) is exhausted.  Short web-like
connections set ``packets_to_send`` and assign an ``on_complete`` callback.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from repro.core.paced import PACKET_SIZE
from repro.net.packet import Packet, PacketType
from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import FastTimer
from repro.sim.trace import Tracer
from repro.tcp.rto import RTOEstimator
from repro.tcp.sink import TCPAckInfo

PacketSender = Callable[[Packet], None]


class TCPSender:
    """Window-based, ACK-clocked SACK TCP sender."""

    MAX_CWND = 10_000.0  # _open_window's ceiling
    DUPACK_THRESHOLD = 3  # duplicate ACKs that trigger fast retransmit
    INITIAL_CWND = 2.0  # segments
    # Bounding the initial slow-start like real stacks do (64 segments ~
    # a 64 KB window) avoids a pathological first overshoot on long-fat
    # paths.
    INITIAL_SSTHRESH = 64.0

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        send_packet: PacketSender,
        rto_granularity: float = 0.1,
        min_rto: float = 0.2,
        rto_k: float = 4.0,
        packets_to_send: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self._send_packet = send_packet
        self.packet_size = PACKET_SIZE
        self.tracer = tracer
        self.packets_to_send = packets_to_send
        #: called once when ``packets_to_send`` segments are all ACKed.
        self.on_complete: Optional[Callable[[], None]] = None
        self._completed = False

        self.cwnd = self.INITIAL_CWND
        self.ssthresh = self.INITIAL_SSTHRESH
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
        # The SACK scoreboard and the recovery pipe estimate.
        self._sacked: Set[int] = set()
        self._retx_in_recovery: Set[int] = set()
        self._pipe = 0
        self._started = False
        self._stopped = False

        # Statistics.
        self.packets_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        self.acks_received = 0
        self.acked_resends = 0  # new data below snd_una (go-back-N defect)
        # Cumulative ACKs past snd_nxt after a go-back-N: the same defect,
        # seen from the ACK side; _ack_past_snd_nxt raises on any other.
        self.acks_past_snd_nxt = 0
        self._went_back_n = False

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
            if ack_seq > self.snd_nxt:
                self._ack_past_snd_nxt()
            self.dupacks = 0
            if self._retransmitted:
                # Karn bookkeeping exists only after a retransmission.
                self._retransmitted.difference_update(range(snd_una, ack_seq))
            if not self.in_recovery:
                self._open_window(newly_acked)
            elif ack_seq > self.recover:
                self._exit_recovery()
            else:
                # A partial ACK: the cumulatively ACKed packets have left
                # the network.
                self._pipe = max(0, self._pipe - newly_acked)
                self._sacked = {s for s in self._sacked if s >= ack_seq}
                self._recovery_send()
            self._restart_timer()
        elif ack_seq == snd_una and self.snd_nxt > snd_una:
            self.dupacks += 1
            if self.in_recovery:
                # _register_sack already took any *new* SACK information off
                # the pipe.  A dupACK with no new SACK blocks (e.g. one
                # triggered by a spurious retransmission of ours) is no
                # evidence that a packet left the network, so it must not
                # shrink the pipe -- otherwise the sender clocks out an
                # unbounded stream of useless retransmissions.
                self._recovery_send()
            elif self.dupacks == self.DUPACK_THRESHOLD:
                self.fast_retransmits += 1
                self._enter_recovery()
                self._recovery_send()
        self._check_complete()
        self._try_send()

    def _ack_past_snd_nxt(self) -> None:
        """``snd_una > snd_nxt`` after a new ACK.

        ``_go_back_n`` leaves ``snd_nxt = snd_una + 1`` while segments above
        it are still in flight, so their cumulative ACK can pass ``snd_nxt``:
        that known defect is counted in ``acks_past_snd_nxt``.  Without a
        preceding go-back-N the sender state is corrupt, and this raises.
        """
        if self._went_back_n:
            self.acks_past_snd_nxt += 1
            return
        raise SimulationError(
            f"flow {self.flow_id}: snd_una {self.snd_una} > snd_nxt "
            f"{self.snd_nxt} after a new ACK at t={self.sim._now!r}"
        )

    def _sample_rtt(self, info: TCPAckInfo) -> None:
        # Karn's rule: never sample from a retransmitted segment.
        if info.echo_seq in self._retransmitted:
            return
        rtt = self.sim._now - info.echo_ts
        if rtt > 0:
            self.rto_estimator.sample(rtt)

    def _register_sack(self, info: TCPAckInfo) -> None:
        """Add the ACK's SACK blocks to the scoreboard; in recovery, take
        the newly SACKed packets off the pipe."""
        if not info.sack_blocks:
            return  # the common ACK: nothing held out of order
        sacked = self._sacked
        before = len(sacked)
        snd_una = self.snd_una
        for start, end in info.sack_blocks:
            sacked.update(range(max(start, snd_una), end))
        if self.in_recovery:
            newly_sacked = len(sacked) - before
            self._pipe = max(0, self._pipe - newly_sacked)

    # ------------------------------------------------------------ recovery

    def _holes(self) -> List[int]:
        """Unacked, unsacked, not-yet-retransmitted seqs below the SACK top."""
        if not self._sacked:
            return []
        top = max(self._sacked)
        return [
            seq
            for seq in range(self.snd_una, top)
            if seq not in self._sacked and seq not in self._retx_in_recovery
        ]

    def _recovery_send(self) -> None:
        """Clock out holes, then new data, while ``pipe < cwnd``."""
        window = int(self.cwnd)
        if self._pipe >= window:
            return
        # Only ``_retx_in_recovery`` changes inside the loop, and only by
        # the hole just sent: one scoreboard walk, consumed in order.
        holes = iter(self._holes())
        while self._pipe < window:
            seq = next(holes, None)
            if seq is not None:
                self._retx_in_recovery.add(seq)
                self._transmit(seq, is_retransmission=True)
            elif self._more_data_available():
                self._send_new()
            else:
                break
            self._pipe += 1

    # ---------------------------------------------------------- transitions

    def _set_cwnd(self, value: float) -> None:
        """Every ``cwnd`` write after ``__init__``; floored at one packet.

        A NaN or infinite ``value`` raises instead (``max(1.0, nan)`` would
        make it a window of 1).  ``value - value`` is 0.0 for every finite
        float and NaN for NaN and +-inf, so one comparison tests all three.
        """
        if value - value != 0.0:
            raise SimulationError(
                f"flow {self.flow_id}: cwnd {value!r} at t={self.sim._now!r} "
                f"is not finite"
            )
        self.cwnd = max(1.0, value)

    def _enter_recovery(self) -> None:
        """Halve, deflate to ``ssthresh``, and recover until everything
        sent so far is ACKed."""
        self.halve_window()
        self.in_recovery = True
        self.recover = self.snd_nxt - 1
        self._set_cwnd(self.ssthresh)
        # Conservative pipe estimate: flight minus the dupACK departures.
        self._pipe = max(0, self.outstanding - self.DUPACK_THRESHOLD)

    def _exit_recovery(self) -> None:
        self.in_recovery = False
        self.dupacks = 0
        self._set_cwnd(self.ssthresh)
        self._sacked = {s for s in self._sacked if s >= self.snd_una}
        self._retx_in_recovery.clear()
        self._pipe = 0

    def _go_back_n(self) -> None:
        """Resend the head from cwnd 1; the rest goes again as new data."""
        self.halve_window()
        self._set_cwnd(1.0)
        self.dupacks = 0
        self._transmit(self.snd_una, is_retransmission=True)
        self.snd_nxt = self.snd_una + 1
        self._went_back_n = True

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

        Growth is per-ACK ("ACK counting"), not per acknowledged packet;
        the sink ACKs every segment, so in slow start that is one per
        segment.
        """
        cwnd = self.cwnd
        cwnd += 1.0 if cwnd < self.ssthresh else 1.0 / cwnd
        self._set_cwnd(min(cwnd, self.MAX_CWND))

    def halve_window(self) -> None:
        """ssthresh <- max(flight/2, 2); used on loss detection."""
        self.ssthresh = max(self.outstanding / 2.0, 2.0)

    # ------------------------------------------------------------- sending

    def _more_data_available(self) -> bool:
        if self.packets_to_send is None:
            return True
        return self.snd_nxt < self.packets_to_send

    def _try_send(self) -> None:
        # Recovery transmissions are pipe-clocked by _recovery_send instead.
        if self._stopped or not self._started or self.in_recovery:
            return
        while (
            self.snd_nxt - self.snd_una < int(self.cwnd)
            and self._more_data_available()
        ):
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
        self._sacked.clear()
        self._retx_in_recovery.clear()
        self._pipe = 0
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
