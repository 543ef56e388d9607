"""NewReno TCP: fast recovery that survives partial ACKs (RFC 2582 style).

Unlike classic Reno, a partial ACK (new data acknowledged but below the
``recover`` point) retransmits the next presumed-lost packet and stays in
recovery, so a window with several losses is repaired with a single window
halving.
"""

from __future__ import annotations

from repro.tcp.reno import RenoSender


class NewRenoSender(RenoSender):
    variant = "newreno"

    def on_partial_ack(self, ack_seq: int, newly_acked: int) -> None:
        # Retransmit the next hole and deflate by the amount acked, plus one
        # for the retransmission (RFC 2582 partial-ACK window management).
        self.retransmit_head()
        self._set_cwnd(self.cwnd - newly_acked + 1.0)
        # Stay in recovery until self.recover is cumulatively acknowledged.
