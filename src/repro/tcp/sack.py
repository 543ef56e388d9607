"""SACK TCP (ns-2 "Sack1"-style): scoreboard plus pipe-based recovery.

This is the variant the paper uses for its main simulations ("TFRC vs TCP
Sack1").  During recovery the sender keeps a conservative estimate of the
number of packets in the pipe; each arriving dupACK/SACK decrements it, each
(re)transmission increments it, and packets are clocked out while
``pipe < cwnd``.  Holes (sequence numbers below the highest SACKed block that
the receiver has not reported) are retransmitted before any new data.
"""

from __future__ import annotations

from typing import List, Set

from repro.tcp.base import TCPSender
from repro.tcp.sink import TCPAckInfo


class SackSender(TCPSender):
    variant = "sack"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._sacked: Set[int] = set()
        self._retx_in_recovery: Set[int] = set()
        self._pipe = 0

    # ------------------------------------------------------------- SACK in

    def _register_sack(self, info: TCPAckInfo) -> None:
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

    def on_dupack_threshold(self) -> None:
        self._enter_recovery()
        self._set_cwnd(self.ssthresh)
        # Conservative pipe estimate: flight minus the dupACK departures.
        self._pipe = max(0, self.outstanding - self.DUPACK_THRESHOLD)
        self._retx_in_recovery.clear()
        self._recovery_send()

    def on_recovery_dupack(self) -> None:
        # Pipe was already decremented by _register_sack for any *new* SACK
        # information this ACK carried; a duplicate ACK with no new SACK
        # blocks (e.g. triggered by one of our own spurious retransmissions)
        # is not evidence that a packet left the network, so it must not
        # shrink the pipe -- otherwise the sender clocks out an unbounded
        # stream of useless retransmissions.
        self._recovery_send()

    def on_partial_ack(self, ack_seq: int, newly_acked: int) -> None:
        # The cumulatively-ACKed packets have left the network.
        self._pipe = max(0, self._pipe - newly_acked)
        self._sacked = {s for s in self._sacked if s >= ack_seq}
        self._recovery_send()

    def _recovery_send(self) -> None:
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

    def _exit_recovery(self) -> None:
        super()._exit_recovery()
        self._sacked = {s for s in self._sacked if s >= self.snd_una}
        self._retx_in_recovery.clear()
        self._pipe = 0

    def on_timeout_reset(self) -> None:
        self._sacked.clear()
        self._retx_in_recovery.clear()
        self._pipe = 0

    def _window_allows(self) -> bool:
        # Recovery transmissions are pipe-clocked instead.
        return (
            not self.in_recovery
            and self.snd_nxt - self.snd_una < int(self.cwnd)
        )
