"""Receiver-side loss-event detection.

The receiver detects losses from gaps in the data sequence space and groups
losses that begin within one round-trip time of each other into a single
**loss event** (paper section 3.5.1: "we explicitly ignore losses within a
round-trip time that follow an initial loss").

Detection is declared after ``REORDER_TOLERANCE`` subsequent packets arrive
(three: RFC 5348's NDUPACK, the paper's section 3.5.1), mirroring TCP's
three-dupACK heuristic, so mild reordering does not masquerade as loss.
The loss *time* of a hole is interpolated between the arrival times of the
packets surrounding it, which is what decides whether the hole joins the
previous loss event or starts a new one.

A packet that arrives after its hole was declared lost counts as received
and withdraws nothing: the loss and its event stand.  No simulated path
makes such an arrival -- links, lossy paths and access ports are FIFO and
TFRC never resends a sequence number -- so the detector keeps no record of
declared losses to take back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class LossEvent:
    """One loss event: its start time, the seq of its first lost packet,
    and the length (in packets) of the interval it closed."""

    time: float
    first_lost_seq: int
    closed_interval: int


class LossEventDetector:
    """Turns a stream of (seq, arrival time) into loss events and intervals.

    The caller supplies ``rtt_fn`` returning the current round-trip-time
    estimate (piggybacked from the sender on data packets in our TFRC
    implementation); holes whose interpolated loss times fall within one RTT
    of the active event's start are merged into it.

    ``on_event`` (optional) is invoked for every *new* loss event with the
    :class:`LossEvent` record -- TFRC uses this for expedited feedback.
    """

    #: later arrivals that declare a hole lost (NDUPACK).
    REORDER_TOLERANCE = 3

    def __init__(
        self,
        rtt_fn: Callable[[], float],
        on_event: Optional[Callable[[LossEvent], None]] = None,
    ) -> None:
        self.rtt_fn = rtt_fn
        self.on_event = on_event
        self._next_expected = 0
        self._pending_holes: Dict[int, float] = {}  # seq -> interpolated time
        self._holes_followers: Dict[int, int] = {}  # seq -> packets seen since
        self._last_arrival_time: Optional[float] = None
        self._last_arrival_seq: Optional[int] = None
        self._event_start_time: Optional[float] = None
        self._event_start_seq: Optional[int] = None
        self.events: List[LossEvent] = []
        self.packets_received = 0
        self.packets_lost = 0

    # ------------------------------------------------------------ geometry

    def open_interval_packets(self) -> int:
        """s0: packets spanning from just after the current event's start to
        the highest sequence number received."""
        if self._event_start_seq is None or self._last_arrival_seq is None:
            return self.packets_received
        return max(0, self._last_arrival_seq - self._event_start_seq)

    # ------------------------------------------------------------- arrival

    def arrive_in_order(self, seq: int, now: float) -> bool:
        """Process ``seq`` if it arrives in order with no hole pending, and
        say whether it did; otherwise change nothing and return False.

        An in-order arrival moves the highest sequence number up by one and
        cannot start a loss event, so the general body reduces to the
        updates below.  A False return leaves the arrival to
        :meth:`on_arrival`.
        """
        if seq != self._next_expected or self._holes_followers:
            return False
        self.packets_received += 1
        self._next_expected = seq + 1
        self._last_arrival_time = now
        self._last_arrival_seq = seq
        return True

    def on_arrival(self, seq: int, now: float) -> List[LossEvent]:
        """Process one data arrival; returns any newly declared loss events."""
        if self.arrive_in_order(seq, now):
            return []
        return self._on_arrival_general(seq, now)

    def _on_arrival_general(self, seq: int, now: float) -> List[LossEvent]:
        """Any arrival: gaps, late packets, pending holes.  The only body
        for those, and what the in-order case above is fuzzed against."""
        self.packets_received += 1
        if seq >= self._next_expected:
            self._register_holes(seq, now)
            self._next_expected = seq + 1
        else:
            # A late (reordered or duplicate) packet fills its hole if it is
            # still pending; a hole already declared lost stays lost.
            self._pending_holes.pop(seq, None)
            self._holes_followers.pop(seq, None)
        self._last_arrival_time = now
        self._last_arrival_seq = max(self._last_arrival_seq or 0, seq)
        return self._mature_holes()

    def _register_holes(self, seq: int, now: float) -> None:
        gap = range(self._next_expected, seq)
        if not gap:
            for pending in list(self._holes_followers):
                self._holes_followers[pending] += 1
            return
        prev_time = self._last_arrival_time if self._last_arrival_time is not None else now
        prev_seq = self._last_arrival_seq if self._last_arrival_seq is not None else seq - len(gap) - 1
        span = max(1, seq - prev_seq)
        for missing in gap:
            # Interpolate the loss time between the surrounding arrivals.
            frac = (missing - prev_seq) / span
            loss_time = prev_time + frac * (now - prev_time)
            self._pending_holes[missing] = loss_time
            self._holes_followers[missing] = 1  # this arrival follows it
        for pending in self._holes_followers:
            if pending not in gap:
                self._holes_followers[pending] += 1

    def _mature_holes(self) -> List[LossEvent]:
        """Declare holes lost once enough later packets have arrived."""
        matured = [
            seq
            for seq, followers in self._holes_followers.items()
            if followers >= self.REORDER_TOLERANCE
        ]
        new_events: List[LossEvent] = []
        for seq in sorted(matured):
            loss_time = self._pending_holes.pop(seq)
            self._holes_followers.pop(seq)
            self.packets_lost += 1
            event = self._classify_loss(seq, loss_time)
            if event is not None:
                new_events.append(event)
        return new_events

    def on_congestion_mark(self, seq: int, now: float) -> Optional[LossEvent]:
        """Treat an ECN-marked arrival as a congestion signal.

        Marks participate in the same event grouping as losses: a mark
        within one RTT of the active event start merges into it; otherwise
        it starts a new loss event (with the usual sequence-distance
        interval), exactly as TFRC-over-ECN requires congestion marks to be
        treated like drops.
        """
        return self._classify_loss(seq, now)

    def _classify_loss(self, seq: int, loss_time: float) -> Optional[LossEvent]:
        """Merge into the active loss event or start a new one."""
        rtt = max(0.0, self.rtt_fn())
        if (
            self._event_start_time is not None
            and loss_time < self._event_start_time + rtt
        ):
            return None  # same loss event; ignored per section 3.5.1
        closed = 0
        if self._event_start_seq is not None:
            closed = max(1, seq - self._event_start_seq)
        else:
            closed = max(1, seq)
        self._event_start_time = loss_time
        self._event_start_seq = seq
        event = LossEvent(time=loss_time, first_lost_seq=seq, closed_interval=closed)
        self.events.append(event)
        if self.on_event is not None:
            self.on_event(event)
        return event
