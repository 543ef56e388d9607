"""RAP: the Rate Adaptation Protocol (AIMD on a rate, not a window).

Reproduction of the related-work baseline (Rejaie, Handley, Estrin,
INFOCOM'99) the paper discusses in section 5.  The receiver ACKs every
packet; the sender detects losses from ACK gaps and timeouts, and adapts a
*rate*:

* additive increase once per RTT when no loss was detected:
  ``rate += packet_size / srtt`` (one packet per RTT, like TCP's congestion
  avoidance);
* multiplicative decrease on each loss event: ``rate *= 0.5``.

RAP does not model retransmission-timeout effects, which is why (per the
paper) it is expected to coexist with TCP less well than TFRC in
timeout-dominated regimes.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.baselines.ack import AckReceiver, PacketAck
from repro.core.paced import PacedSender, PacketSender
from repro.net.flow import Flow, Port
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.process import FastTimer
from repro.sim.trace import Tracer


class RapSender(PacedSender):
    """AIMD rate-based sender with ACK-gap loss detection."""

    LOSS_GAP = 3  # ACKs with higher seq before a hole is declared lost
    SCAN_WINDOW = 50  # sequence numbers below the loss horizon still examined
    DECREASE_FACTOR = 0.5  # multiplicative decrease per loss

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        send_packet: PacketSender,
        packet_size: int = 1000,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(
            sim, flow_id, send_packet, packet_size,
            rate=16_000.0 / 8.0, initial_rtt=0.2,  # 16 kb/s
            rtt_ewma_weight=0.125, tracer=tracer,
        )
        self._highest_acked = -1
        # Both sets only ever hold sequence numbers at or above
        # ``_scan_floor``, the lowest one ``_detect_losses`` can still read.
        self._acked: Set[int] = set()
        self._declared_lost: Set[int] = set()
        self._scan_floor = 0
        self._loss_in_this_rtt = False
        self._rtt_timer = FastTimer(sim, self._per_rtt_update)
        self.acks_received = 0
        self.loss_events = 0

    def _after_start(self) -> None:
        self._rtt_timer.start(self._rtt_or_default())

    def stop(self) -> None:
        super().stop()
        self._rtt_timer.cancel()

    def on_ack(self, packet: Packet) -> None:
        if self._stopped or not packet.is_ack:
            return
        info = packet.payload
        if not isinstance(info, PacketAck):
            return
        self.acks_received += 1
        self._sample_rtt(self.sim._now - info.echo_ts)
        seq = info.echo_seq
        if seq >= self._scan_floor:
            self._acked.add(seq)
        if seq > self._highest_acked:
            self._highest_acked = seq
        self._detect_losses()

    def _detect_losses(self) -> None:
        """Declare holes LOSS_GAP below the highest ACK as lost."""
        horizon = self._highest_acked - self.LOSS_GAP
        floor = max(0, horizon - self.SCAN_WINDOW)
        # ``_highest_acked`` is monotone, so nothing below ``floor`` is ever
        # read again: forget it rather than grow for the life of the flow.
        for seq in range(self._scan_floor, floor):
            self._acked.discard(seq)
            self._declared_lost.discard(seq)
        self._scan_floor = floor
        new_loss = False
        for seq in range(floor, max(0, horizon)):
            if (
                seq not in self._acked
                and seq not in self._declared_lost
                and seq < self._seq
            ):
                self._declared_lost.add(seq)
                new_loss = True
        if new_loss and not self._loss_in_this_rtt:
            self._loss_in_this_rtt = True
            self.loss_events += 1
            self._set_rate(self.rate * self.DECREASE_FACTOR)

    def _per_rtt_update(self) -> None:
        """Once per RTT: additive increase if the RTT was loss-free."""
        if not self._loss_in_this_rtt and self.srtt:
            self._set_rate(self.rate + self.packet_size / self.srtt)
        self._loss_in_this_rtt = False
        if not self._stopped:
            self._rtt_timer.start(self._rtt_or_default())


class RapFlow(Flow):
    """Convenience wiring of a RAP sender/receiver over two ports."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        forward_port: Port,
        reverse_port: Port,
        on_data=None,
        **sender_kwargs,
    ) -> None:
        sender = RapSender(sim, flow_id, forward_port.send, **sender_kwargs)
        receiver = AckReceiver(sim, flow_id, reverse_port.send, on_data=on_data)
        super().__init__(
            sim, flow_id, forward_port, reverse_port,
            sender, receiver, sender.on_ack,
        )
