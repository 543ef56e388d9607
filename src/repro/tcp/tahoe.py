"""Tahoe TCP: fast retransmit, then slow start from a window of one."""

from __future__ import annotations

from repro.tcp.base import TCPSender


class TahoeSender(TCPSender):
    """Tahoe reduces to cwnd = 1 on every loss detection (no fast recovery)."""

    variant = "tahoe"

    def on_dupack_threshold(self) -> None:
        # Tahoe re-enters slow start and retransmits the lost packet, exactly
        # as after a timeout.
        self._go_back_n()
