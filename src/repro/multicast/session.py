"""A complete single-source multicast TFRC session on the simulator.

Builds a star "multicast tree": the sender's packets are replicated onto
one :class:`~repro.net.path.LossyPath` per receiver (each with its own
delay and loss model), receiver reports return over per-receiver unicast
paths, and the sender echoes winning reports to the group (standing in for
the reports being multicast).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.paced import PACKET_SIZE
from repro.multicast.receiver import MulticastReceiver, MulticastReport
from repro.multicast.sender import MulticastTfrcSender
from repro.net.packet import Packet
from repro.net.path import LossModel, LossyPath
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


class MulticastTfrcSession:
    """One sender, N receivers, suppression-based feedback."""

    def __init__(
        self,
        sim: Simulator,
        receiver_specs: Sequence[Tuple[float, Optional[LossModel]]],
        seed: int = 0,
        round_duration: float = 1.0,
    ) -> None:
        """``receiver_specs`` is a list of ``(one_way_delay, loss_model)``."""
        if not receiver_specs:
            raise ValueError("need at least one receiver")
        self.sim = sim
        registry = RngRegistry(seed)
        self.receivers: List[MulticastReceiver] = []
        self._down_paths: List[LossyPath] = []
        self._up_paths: List[LossyPath] = []

        self.sender = MulticastTfrcSender(
            sim,
            "mcast",
            send_packet=self._replicate,
            echo_report=self._echo_to_group,
            packet_size=PACKET_SIZE,
            round_duration=round_duration,
        )
        self.sender.on_round_start = self._start_receiver_round

        for index, (delay, loss_model) in enumerate(receiver_specs):
            receiver_id = f"mcast-rx{index}"
            down = LossyPath(
                sim, delay=delay, loss_model=loss_model, name=f"{receiver_id}-down"
            )
            up = LossyPath(sim, delay=delay, name=f"{receiver_id}-up")
            up.connect(self.sender.on_report)
            receiver = MulticastReceiver(
                sim,
                receiver_id,
                send_report=up.send,
                rng=registry.stream(f"suppression-{index}"),
                packet_size=PACKET_SIZE,
                round_duration=round_duration,
            )
            down.connect(receiver.receive)
            self.receivers.append(receiver)
            self._down_paths.append(down)
            self._up_paths.append(up)

    # ---------------------------------------------------------- replication

    def _replicate(self, packet: Packet) -> None:
        """Fan one data packet out to every receiver's downstream path."""
        for path in self._down_paths:
            copy = Packet(
                flow_id=packet.flow_id,
                seq=packet.seq,
                size=packet.size,
                ptype=packet.ptype,
                sent_at=packet.sent_at,
                payload=packet.payload,
            )
            path.send(copy)

    def _echo_to_group(self, report: MulticastReport) -> None:
        """The sender re-multicasts winning reports for suppression."""
        for receiver in self.receivers:
            receiver.on_heard_report(report)

    def _start_receiver_round(self) -> None:
        for receiver in self.receivers:
            receiver.start_round()

    # ------------------------------------------------------------------ API

    def start(self) -> None:
        self.sender.start()

    def stop(self) -> None:
        self.sender.stop()
        for receiver in self.receivers:
            receiver.stop()

    @property
    def total_reports(self) -> int:
        return sum(r.reports_sent for r in self.receivers)

    def bottleneck_receiver(self) -> MulticastReceiver:
        """The receiver whose path currently allows the lowest rate."""
        return min(self.receivers, key=lambda r: r.calculated_rate())
