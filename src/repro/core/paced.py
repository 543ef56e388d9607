"""PacedSender: the mechanism every rate-based sender here shares.

The paper's section 5 compares TFRC with TFRCP, RAP and TEAR, and section 6
sketches a multicast variant: five senders that differ only in the *policy*
that sets the allowed rate.  The mechanism under the policy lives here once:
sequence numbering, the pacing loop at ``packet_size / rate``, an
idempotent ``start()`` / ``stop()``, the smoothed-RTT EWMA, and
:meth:`PacedSender._set_rate` -- the one place the allowed rate changes, is
floored, is appended to ``rate_history`` and is traced.  A subclass keeps
its feedback handler and its rate policy and nothing else.

TCP senders are deliberately not under this base: a congestion window is
not a rate, and nothing here (pacing, the ``t_mbi`` floor) applies to one.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.net.packet import Packet, PacketType
from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import FastTimer
from repro.sim.trace import Tracer

PacketSender = Callable[[Packet], None]

#: Maximum back-off interval: never send slower than one packet per 64 s.
T_MBI = 64.0
#: bytes per data packet wherever no caller picks a size: the baseline,
#: multicast and TCP senders and the background sources (the paper's
#: 1000-byte packets, section 4.1.2).
PACKET_SIZE = 1000


class PacedSender:
    """Paces data packets at an allowed rate that subclasses adapt."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        send_packet: PacketSender,
        packet_size: int,
        rate: float,
        initial_rtt: float,
        rtt_ewma_weight: float,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self._send_packet = send_packet
        self.packet_size = packet_size
        #: allowed sending rate in bytes/second
        self.rate = rate
        self.initial_rtt = initial_rtt
        self.rtt_ewma_weight = rtt_ewma_weight
        self.srtt: Optional[float] = None
        self.tracer = tracer
        self._seq = 0
        # Re-armed per packet: a generation-counter timer, no Event handle
        # per arming.
        self._send_timer = FastTimer(sim, self._send_next)
        self._started = False
        self._stopped = False
        self.packets_sent = 0
        #: (time, bytes_per_second) on every allowed-rate decision.
        self.rate_history: List[Tuple[float, float]] = []

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Begin transmitting (idempotent)."""
        if self._started:
            return
        self._started = True
        self._set_rate(self.rate)
        self._send_next()
        self._after_start()

    def _after_start(self) -> None:
        """Arm the subclass's control timers, after the first packet."""

    def stop(self) -> None:
        self._stopped = True
        self._send_timer.cancel()

    # ----------------------------------------------------------------- rate

    def _set_rate(self, rate: float) -> None:
        """Every rate decision: floor at one packet per ``T_MBI``, record.

        A decision is recorded even when it leaves the value unchanged, so
        ``rate_history`` (and the trace) has one sample per feedback event.
        A NaN or infinite ``rate`` raises instead: ``max`` would floor a NaN
        to ``min_rate``, and +inf would pace packets 0 s apart.  ``rate -
        rate`` is 0.0 for every finite float and NaN otherwise, so one
        comparison tests all three.
        """
        now = self.sim._now
        if rate - rate != 0.0:
            raise SimulationError(
                f"flow {self.flow_id}: rate {rate!r} at t={now!r} is not finite"
            )
        rate = max(self.min_rate, rate)
        self.rate = rate
        self.rate_history.append((now, rate))
        if self.tracer is not None:
            self.tracer.record(now, "rate", self.flow_id, rate)

    @property
    def min_rate(self) -> float:
        """The floor :meth:`_set_rate` applies: one packet per ``T_MBI``."""
        return self.packet_size / T_MBI

    # ------------------------------------------------------------------ RTT

    def _sample_rtt(self, rtt: float) -> None:
        """Fold one RTT sample into ``srtt``; non-positive ones are ignored."""
        if rtt <= 0:
            return
        if self.srtt is None:
            self.srtt = rtt
        else:
            self.srtt += self.rtt_ewma_weight * (rtt - self.srtt)

    def _rtt_or_default(self) -> float:
        return self.srtt if self.srtt is not None else self.initial_rtt

    # --------------------------------------------------------------- pacing

    def _interpacket_interval(self) -> float:
        return self.packet_size / self.rate

    def _data_payload(self) -> Any:
        """What rides on each data packet (nothing, unless overridden)."""
        return None

    def _send_next(self) -> None:
        if self._stopped:
            return
        packet = Packet(
            flow_id=self.flow_id,
            seq=self._seq,
            size=self.packet_size,
            ptype=PacketType.DATA,
            sent_at=self.sim._now,
            payload=self._data_payload(),
        )
        self._seq += 1
        self.packets_sent += 1
        self._send_packet(packet)
        self._send_timer.start(self._interpacket_interval())
