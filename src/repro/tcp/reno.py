"""Reno TCP: fast retransmit plus classic fast recovery.

Classic Reno exits recovery on the first new ACK, even a partial one, which
is why it can halve the window more than once when several packets are lost
from a single flight -- a behaviour the paper calls out in section 3.5.1
("Reno TCP typically reduces the congestion window twice in response to
multiple losses in a window of data").
"""

from __future__ import annotations

from repro.tcp.base import TCPSender


class RenoSender(TCPSender):
    variant = "reno"

    def on_dupack_threshold(self) -> None:
        self._enter_recovery()
        self.retransmit_head()
        # Window inflation: ssthresh + number of dupACKs seen so far.
        self._set_cwnd(self.ssthresh + self.DUPACK_THRESHOLD)

    def on_recovery_dupack(self) -> None:
        # Each dupACK signals a departure; inflate (past MAX_CWND if need be).
        self._set_cwnd(self.cwnd + 1.0)
