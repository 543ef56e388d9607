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

Deep reordering can outlast the tolerance: a packet may be declared lost
and still arrive later.  Such late arrivals **retract** the declaration --
the loss count is decremented and, once a loss event has no surviving
constituent losses, the event itself is withdrawn -- so reordered-but-
delivered packets never leave a phantom loss event behind.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: "No expiry scan is due": above every sequence number a run reaches.
_NEVER = sys.maxsize


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
        self._active_event: Optional[LossEvent] = None
        self._declared: Dict[int, LossEvent] = {}  # matured seq -> its event
        # A lower bound on the keys of ``_declared``, and the first in-order
        # seq whose arrival lets an expiry scan drop one of them (see
        # :meth:`_expire_retractables`).
        self._declared_floor = _NEVER
        self._expiry_seq = _NEVER
        self._event_members: Dict[int, int] = {}  # id(event) -> live losses
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
        can neither start nor withdraw a loss event, so the general body
        reduces to the updates below.  A False return leaves the arrival to
        :meth:`on_arrival`.
        """
        if seq != self._next_expected or self._holes_followers:
            return False
        self.packets_received += 1
        self._next_expected = seq + 1
        self._last_arrival_time = now
        self._last_arrival_seq = seq
        if seq >= self._expiry_seq:
            self._expire_retractables()
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
            # Late (reordered or duplicate) packet fills its hole if pending,
            # or retracts its loss declaration if the hole already matured.
            self._pending_holes.pop(seq, None)
            self._holes_followers.pop(seq, None)
            self._retract(seq)
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
            # Whether it started the event or merged into the active one,
            # the declared loss is a retractable constituent of that event.
            assert self._active_event is not None
            self._declared[seq] = self._active_event
            if seq < self._declared_floor:
                self._declared_floor = seq
            self._add_member(self._active_event)
        self._expire_retractables()
        return new_events

    def _add_member(self, event: LossEvent) -> None:
        """Count one more constituent of ``event``, resurrecting the event
        into :attr:`events` if every earlier constituent had been retracted
        (the withdrawn event stays the geometry anchor, see :meth:`_retract`,
        so a genuine loss can still merge into it).  Resurrection does not
        re-fire ``on_event``: consumers were already notified when the event
        was first declared."""
        key = id(event)
        count = self._event_members.get(key, 0)
        self._event_members[key] = count + 1
        if count == 0:
            # Freshly created events are always the list tail (appended by
            # _classify_loss one frame earlier), so only a genuine
            # resurrection pays for the identity scan.
            if not self.events or self.events[-1] is not event:
                if not any(e is event for e in self.events):
                    self.events.append(event)

    #: Retraction horizon, in packets: a declared loss this far behind the
    #: highest delivered sequence number is considered permanent, so its
    #: bookkeeping can be dropped (bounds ``_declared`` on long runs).
    RETRACTION_WINDOW = 4096

    def _expire_retractables(self) -> None:
        """Forget declared losses behind the horizon, once more than 64 are
        held.

        The scan is skipped while ``_declared_floor`` (a lower bound on the
        declared seqs) is at or above the horizon, since it would drop
        nothing.  Only the general body changes ``_declared``, and it ends
        here, so ``_expiry_seq`` -- the in-order arrival at which a scan
        next has anything to drop -- is set here too.
        """
        declared = self._declared
        window = self.RETRACTION_WINDOW
        if len(declared) <= 64:
            self._expiry_seq = _NEVER
            return
        horizon = self._next_expected - window
        if self._declared_floor < horizon:
            for s in [s for s in declared if s < horizon]:
                del declared[s]
            self._declared_floor = min(declared, default=_NEVER)
        if len(declared) > 64:
            # Due once ``_next_expected - window`` passes the floor.
            self._expiry_seq = self._declared_floor + window
        else:
            self._expiry_seq = _NEVER

    def _retract(self, seq: int) -> None:
        """A declared-lost packet arrived after all: withdraw the loss.

        Decrements the loss count; when the owning event has no other
        surviving constituent losses the event itself is removed from
        :attr:`events`.  The event-start geometry (``_event_start_time`` /
        ``_event_start_seq``) is deliberately **not** rolled back: the
        consumer's loss-interval history already closed an interval at this
        event (via ``on_event``), so the open interval must keep counting
        from the withdrawn event's start -- rolling back would double-count
        those packets into both the closed and the reopened interval.
        """
        event = self._declared.pop(seq, None)
        if event is None:
            return
        self.packets_lost -= 1
        key = id(event)
        remaining = self._event_members.get(key, 1) - 1
        if remaining > 0:
            self._event_members[key] = remaining
            return
        self._event_members.pop(key, None)
        for index, candidate in enumerate(self.events):
            if candidate is event:
                del self.events[index]
                break

    def on_congestion_mark(self, seq: int, now: float) -> Optional[LossEvent]:
        """Treat an ECN-marked arrival as a congestion signal.

        Marks participate in the same event grouping as losses: a mark
        within one RTT of the active event start merges into it; otherwise
        it starts a new loss event (with the usual sequence-distance
        interval), exactly as TFRC-over-ECN requires congestion marks to be
        treated like drops.  Marks are permanent constituents: the marked
        packet *did* arrive, so there is nothing to retract later.
        """
        event = self._classify_loss(seq, now)
        if self._active_event is not None:
            self._add_member(self._active_event)
        return event

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
        self._active_event = event
        self._event_members[id(event)] = 0
        self.events.append(event)
        if self.on_event is not None:
            self.on_event(event)
        return event
