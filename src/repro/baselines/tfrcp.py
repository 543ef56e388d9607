"""TFRCP: equation-based rate control with fixed-interval updates.

A reproduction of the protocol the paper compares against in section 5
(Padhye, Kurose, Towsley, Koodli, NOSSDAV'99): the receiver acknowledges
every packet; every ``UPDATE_INTERVAL`` seconds the sender computes
the loss fraction observed during the previous interval and evaluates the
same TCP response function to reset its rate.  Between updates the rate is
constant, whatever the network does -- the source of the poor transient
behaviour the paper reports.

All the congestion control is at the sender: the receiver acknowledges
every data packet, and the sender counts the un-ACKed sequence numbers.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.core.equations import tcp_response_rate
from repro.core.paced import PACKET_SIZE, PacedSender, PacketSender
from repro.net.flow import Flow, Port
from repro.net.packet import Packet, PacketType
from repro.sim.engine import Simulator
from repro.sim.process import FastTimer


class PacketAck:
    """Per-packet acknowledgment payload."""

    __slots__ = ("echo_ts", "echo_seq")

    def __init__(self, echo_ts: float, echo_seq: int) -> None:
        self.echo_ts = echo_ts
        self.echo_seq = echo_seq


class AckReceiver:
    """Acknowledges every data packet."""

    ACK_SIZE = 40

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        send_ack: PacketSender,
        on_data: Optional[Callable[[float, Packet], None]] = None,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self._send_ack = send_ack
        self.on_data = on_data
        self.packets_received = 0

    def receive(self, packet: Packet) -> None:
        if not packet.is_data:
            return
        self.packets_received += 1
        now = self.sim._now
        if self.on_data is not None:
            self.on_data(now, packet)
        self._send_ack(
            Packet(
                flow_id=self.flow_id,
                seq=packet.seq,
                size=self.ACK_SIZE,
                ptype=PacketType.ACK,
                sent_at=now,
                payload=PacketAck(echo_ts=packet.sent_at, echo_seq=packet.seq),
            )
        )


class TfrcpSender(PacedSender):
    """Fixed-interval, equation-based rate controller."""

    UPDATE_INTERVAL = 5.0  # seconds between rate updates

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        send_packet: PacketSender,
    ) -> None:
        super().__init__(
            sim, flow_id, send_packet, PACKET_SIZE,
            rate=16_000.0 / 8.0, initial_rtt=0.2,  # 16 kb/s
            rtt_ewma_weight=0.1,
        )
        # This interval's packets are ``range(_interval_first_seq, _seq)``.
        self._interval_first_seq = 0
        self._acked_this_interval: Set[int] = set()
        self._update_timer = FastTimer(sim, self._update_rate)
        self.acks_received = 0

    def _after_start(self) -> None:
        self._update_timer.start(self.UPDATE_INTERVAL)

    def stop(self) -> None:
        super().stop()
        self._update_timer.cancel()

    def on_ack(self, packet: Packet) -> None:
        if self._stopped or not packet.is_ack:
            return
        info = packet.payload
        if not isinstance(info, PacketAck):
            return
        self.acks_received += 1
        self._acked_this_interval.add(info.echo_seq)
        self._sample_rtt(self.sim._now - info.echo_ts)

    def _update_rate(self) -> None:
        """Interval boundary: measure last interval's loss fraction, reset rate.

        ACKs still in flight make very recent packets look lost; exclude
        packets sent within the last RTT from the accounting.
        """
        rtt = self._rtt_or_default()
        # Drop from consideration the packets too recent to have been ACKed.
        recent_cutoff = max(0, self._seq - int(self.rate * rtt / self.packet_size) - 1)
        considered = range(self._interval_first_seq, recent_cutoff)
        if considered:
            lost = sum(seq not in self._acked_this_interval for seq in considered)
            loss_fraction = lost / len(considered)
        else:
            loss_fraction = 0.0
        if loss_fraction > 0:
            self._set_rate(
                tcp_response_rate(
                    packet_size=self.packet_size,
                    rtt=rtt,
                    p=loss_fraction,
                    t_rto=4.0 * rtt,
                )
            )
        else:
            # No loss observed: probe upward, doubling like slow start.
            self._set_rate(self.rate * 2.0)
        self._interval_first_seq = self._seq
        self._acked_this_interval.clear()
        if not self._stopped:
            self._update_timer.start(self.UPDATE_INTERVAL)


class TfrcpFlow(Flow):
    """Convenience wiring of a TFRCP sender/receiver over two ports."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        forward_port: Port,
        reverse_port: Port,
        on_data=None,
    ) -> None:
        sender = TfrcpSender(sim, flow_id, forward_port.send)
        receiver = AckReceiver(sim, flow_id, reverse_port.send, on_data=on_data)
        super().__init__(
            sim, flow_id, forward_port, reverse_port,
            sender, receiver, sender.on_ack,
        )
