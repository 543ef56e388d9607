"""Queue disciplines: DropTail and RED.

RED follows Floyd & Jacobson (1993) with the ``gentle`` extension the paper
enables for its simulations (footnote to Figure 8 and section 4.1.2): between
``maxthresh`` and ``2*maxthresh`` the drop probability rises linearly from
``max_p`` to 1 instead of jumping to 1.

Both disciplines count bytes and packets and expose conservation counters so
tests can assert ``enqueued == dequeued + dropped + len(queue)``.  RED
signals congestion only by dropping: the paper's queues mark no packet.
"""

from __future__ import annotations

from collections import deque
from math import exp, log
from typing import Callable, Deque, Optional

import numpy as np

from repro.net.packet import Packet
from repro.net.redmath import RedParams
from repro.sim.rng import BlockDraws


class Queue:
    """Abstract queue discipline.

    Subclasses implement :meth:`enqueue`; dequeue order is FIFO for both
    disciplines used in the paper.  ``drop_hook`` (if set) is called with each
    dropped packet, which the monitors and the TFRC/TCP test fixtures use.
    """

    def __init__(self, capacity_packets: int, name: str = "queue") -> None:
        if capacity_packets <= 0:
            raise ValueError("queue capacity must be at least one packet")
        self.capacity_packets = capacity_packets
        self.name = name
        self._queue: Deque[Packet] = deque()
        self.bytes_queued = 0
        # Conservation counters.
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.drop_hook: Optional[Callable[[Packet], None]] = None

    def __len__(self) -> int:
        return len(self._queue)

    def enqueue(self, packet: Packet, now: float) -> bool:
        """Try to accept ``packet``; return True if queued, False if dropped."""
        raise NotImplementedError

    def dequeue(self, now: float) -> Optional[Packet]:
        """Remove and return the head-of-line packet, or None when empty."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self.bytes_queued -= packet.size
        self.dequeued += 1
        return packet

    def _drop(self, packet: Packet) -> bool:
        self.dropped += 1
        if self.drop_hook is not None:
            self.drop_hook(packet)
        return False


class DropTailQueue(Queue):
    """FIFO queue that drops arrivals when full (tail drop)."""

    def enqueue(self, packet: Packet, now: float) -> bool:
        # The accept/drop bookkeeping is inlined: this runs once per packet
        # on every link.
        queue = self._queue
        if len(queue) >= self.capacity_packets:
            self.dropped += 1
            if self.drop_hook is not None:
                self.drop_hook(packet)
            return False
        queue.append(packet)
        self.bytes_queued += packet.size
        self.enqueued += 1
        return True


class REDQueue(Queue):
    """Random Early Detection with the ``gentle`` option.

    Parameters follow the paper's simulations: for the 15 Mb/s bottleneck it
    uses ``min_thresh=10``, ``max_thresh=50``, total buffer 100 packets,
    ``max_p=0.1``, gentle enabled (section 4.1.2 footnote; the Figure 8
    footnote sets min_thresh 25 and max_thresh 5*min_thresh).

    The average queue size is an EWMA over instantaneous occupancy, updated
    on every arrival; while the link is idle the average decays as if
    ``idle_departures`` small packets had been serviced, per the RED paper.
    The owning :class:`~repro.net.link.Link` reports its speed via
    :meth:`set_service_rate`; a standalone queue falls back to
    :attr:`fallback_service_rate_bps` so the idle decay never silently
    freezes (``avg`` stuck across arbitrarily long idle periods was a
    long-standing bug when no service rate was wired up).

    ``enqueue`` is one fused frame: the EWMA update, drop probability and
    uniformization are inlined against hoisted constants (threshold range,
    per-packet service time, ``ln(1 - w)`` for the idle decay via ``exp``),
    and uniform draws are block-buffered -- numpy fills array draws from the
    same bit stream as repeated scalar calls, so the decision stream is that
    of per-packet ``rng.random()`` calls.  Because draws are buffered ahead,
    the queue's ``rng`` must not be shared with any other consumer (every
    in-repo builder hands RED a dedicated stream).  The decisions are
    fuzz-tested in ``tests/test_net_fastpath.py`` against a model composed
    from the scalar functions of :mod:`repro.net.redmath`.

    Forced drops (buffer overflow or ``p_b >= 1``) reset the uniformization
    counter to 0, matching ns-2 RED and the 1993 RED paper's pseudocode
    (``count <- 0`` on every drop); the counter is -1 only while the
    average sits below ``min_thresh``.
    """

    #: idle-decay fallback when :meth:`set_service_rate` was never called:
    #: the paper's nominal 15 Mb/s bottleneck, giving a mean-packet service
    #: time of ~0.53 ms for the default 1000-byte packets.
    fallback_service_rate_bps = 15e6
    #: bytes: the packet the idle decay counts missed departures in.
    MEAN_PACKET_SIZE = 1000

    def __init__(
        self,
        capacity_packets: int,
        min_thresh: float,
        max_thresh: float,
        max_p: float = 0.1,
        weight: float = 0.002,
        gentle: bool = True,
        rng: Optional[np.random.Generator] = None,
        name: str = "red",
    ) -> None:
        super().__init__(capacity_packets, name=name)
        # Parameter validation and the hoisted decision constants live in
        # the shared RedParams (also consumed by the batched cell kernel).
        self.params = RedParams(
            min_thresh=float(min_thresh),
            max_thresh=float(max_thresh),
            max_p=float(max_p),
            weight=float(weight),
            gentle=gentle,
        )
        self.min_thresh = self.params.min_thresh
        self.max_thresh = self.params.max_thresh
        self.max_p = self.params.max_p
        self.weight = self.params.weight
        self.gentle = gentle
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.avg = 0.0
        self._count_since_drop = -1  # -1: average below min_thresh
        self._idle_since: Optional[float] = None
        self._service_rate_bps: Optional[float] = None  # set by the owning link
        self.early_drops = 0
        self.forced_drops = 0
        # Hoisted per-packet constants.  Each is produced (in RedParams) by
        # the *same* float expression the scalar redmath functions evaluate
        # per call, so using the cached value is bit-identical; only the
        # idle-decay ``exp(log(1-w) * m)`` stands in for ``(1-w) ** m``
        # (equal to within the last ulp of libm).
        self._thresh_range = self.params.thresh_range
        self._two_max_thresh = self.params.two_max_thresh
        self._one_minus_max_p = self.params.one_minus_max_p
        # ``weight == 1`` (legal, degenerate EWMA) has no finite log;
        # ``enqueue`` then uses the power expression.
        self._ln_one_minus_w = (
            log(1.0 - self.weight) if self.weight < 1.0 else None
        )
        self._packet_time = (
            self.MEAN_PACKET_SIZE * 8
        ) / self.fallback_service_rate_bps
        # Block-buffered uniform draws; the shared helper consumes the same
        # bit stream as per-call scalar draws.  ``next`` is hoisted to a
        # bound method so ``enqueue`` pays one call, no extra lookups.
        self._draws = BlockDraws(self._rng, block=64)
        self._next_draw = self._draws.next

    def set_service_rate(self, bits_per_second: float) -> None:
        """Tell RED the link speed so the idle-decay estimate is sensible."""
        if bits_per_second <= 0:
            raise ValueError("service rate must be positive")
        self._service_rate_bps = bits_per_second
        self._packet_time = (self.MEAN_PACKET_SIZE * 8) / bits_per_second

    @property
    def has_service_rate(self) -> bool:
        """True once the owning link wired up :meth:`set_service_rate`."""
        return self._service_rate_bps is not None

    def enqueue(self, packet: Packet, now: float) -> bool:
        queue = self._queue
        qlen = len(queue)
        # --- EWMA update (redmath.red_ewma)
        if qlen:
            avg = self.avg + self.weight * (qlen - self.avg)
            self.avg = avg
        else:
            # Queue is idle: decay avg as if m packets had departed while
            # idle, at the per-packet service time of the link speed (or
            # the nominal fallback when no link ever reported one).
            idle_since = self._idle_since
            if idle_since is None:
                idle_since = now
            idle = now - idle_since
            if idle < 0.0:
                idle = 0.0
            # (1-w)**m  ==  exp(ln(1-w) * m), with ln(1-w) hoisted.
            ln_base = self._ln_one_minus_w
            m = idle / self._packet_time
            if ln_base is not None:
                avg = self.avg * exp(ln_base * m)
            else:
                avg = self.avg * (1.0 - self.weight) ** m
            self.avg = avg
            # Re-anchor so the next arrival decays only the incremental
            # idle time; if this arrival is accepted the queue becomes busy
            # and a later dequeue-to-empty re-establishes the idle start.
            self._idle_since = now
        # --- forced drop: buffer overflow
        if qlen >= self.capacity_packets:
            self.forced_drops += 1
            self._count_since_drop = 0  # ns-2 RED: count <- 0 on every drop
            return self._drop(packet)
        # --- drop probability (redmath.red_drop_probability)
        if avg < self.min_thresh:
            self._count_since_drop = -1
        else:
            if avg < self.max_thresh:
                p_b = (avg - self.min_thresh) / self._thresh_range * self.max_p
            elif self.gentle and avg < self._two_max_thresh:
                p_b = (
                    self.max_p
                    + (avg - self.max_thresh) / self.max_thresh
                    * self._one_minus_max_p
                )
            else:
                self.forced_drops += 1
                self._count_since_drop = 0
                return self._drop(packet)
            if p_b >= 1.0:
                self.forced_drops += 1
                self._count_since_drop = 0
                return self._drop(packet)
            if p_b > 0.0:
                count = self._count_since_drop + 1
                self._count_since_drop = count
                # Uniformize inter-drop gaps: p_a = p_b / (1 - count * p_b)
                # (redmath.red_uniformized).
                denom = 1.0 - count * p_b
                p_a = 1.0 if denom <= 0 else min(1.0, p_b / denom)
                if self._next_draw() < p_a:
                    self._count_since_drop = 0
                    self.early_drops += 1
                    return self._drop(packet)
            else:
                self._count_since_drop = -1
        # --- accept
        queue.append(packet)
        self.bytes_queued += packet.size
        self.enqueued += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        packet = super().dequeue(now)
        if packet is not None and not self._queue:
            self._idle_since = now
        return packet
