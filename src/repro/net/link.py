"""Store-and-forward links.

A :class:`Link` models one unidirectional hop: packets are queued by the
attached queue discipline, serialized at ``bandwidth_bps`` (transmission
delay = size*8/bandwidth), then delivered ``propagation_delay`` seconds later
to the downstream receiver.  Congestion arises naturally when offered load
exceeds the service rate and the queue overflows or RED starts dropping.

A single self-rescheduling wakeup loop per link tracks both the packet in
service and the in-flight propagation train, using bare heap entries that
allocate no :class:`~repro.sim.engine.Event` handles.  The wake chain is
fused: one frame dequeues the next packet, notifies the queue-sample hooks,
drains due deliveries and re-arms, against locals and a per-size
transmission-delay cache (packet sizes are few; each cached value is
produced by the same ``size*8/bandwidth`` expression).  Every packet departs
at ``max(arrival, previous finish) + size*8/bandwidth`` and is delivered
``propagation_delay`` later, which ``benchmarks/test_engine_fastpath.py``
checks against that closed form.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from math import inf, isfinite
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.net.packet import Packet
from repro.net.queues import DropTailQueue, Queue, REDQueue
from repro.sim.engine import Simulator

Receiver = Callable[[Packet], None]


class Link:
    """One unidirectional link with an attached queue discipline."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        propagation_delay: float,
        queue: Queue,
        name: str = "link",
    ) -> None:
        # `not (x > 0)`, not `x <= 0`: every comparison is false for NaN.
        if not (isfinite(bandwidth_bps) and bandwidth_bps > 0):
            raise ValueError(
                f"link {name}: bandwidth_bps must be finite and > 0, "
                f"got {bandwidth_bps!r}"
            )
        if not (isfinite(propagation_delay) and propagation_delay >= 0):
            raise ValueError(
                f"link {name}: propagation_delay must be finite and >= 0, "
                f"got {propagation_delay!r}"
            )
        self.sim = sim
        self.bandwidth_bps = float(bandwidth_bps)
        self.propagation_delay = float(propagation_delay)
        self.queue = queue
        self.name = name
        self._receiver: Optional[Receiver] = None
        self._busy = False
        self.bytes_forwarded = 0
        self.packets_forwarded = 0
        #: packets handed to the receiver: ``packets_forwarded`` less the
        #: propagation train.
        self.packets_delivered = 0
        self._busy_accum = 0.0  # total seconds charged for transmissions
        self._sample_hooks: List[Callable[[float, int], None]] = []
        # Per-size transmission delays: simulations use a handful of packet
        # sizes, so the division is paid once per distinct size.
        self._tx_times: Dict[int, float] = {}
        # Service state: the packet in service, its finish time, the
        # propagation train (delivery times are monotone since the finish
        # times are and the propagation delay is constant), and the time of
        # the earliest pending wakeup (inf when none is known-pending).
        self._tx_packet: Optional[Packet] = None
        self._tx_finish = inf
        self._in_flight: Deque[Tuple[float, Packet]] = deque()
        self._armed_time = inf
        if isinstance(queue, REDQueue):
            queue.set_service_rate(self.bandwidth_bps)
        # The wake chain inlines the dequeue bookkeeping of the two
        # disciplines, DropTail and RED: pure FIFO bookkeeping plus, for
        # RED, the idle timestamp.
        if type(queue) not in (DropTailQueue, REDQueue):
            raise TypeError(f"link {name}: no inline dequeue for {queue!r}")
        self._red_queue = queue if type(queue) is REDQueue else None

    def connect(self, receiver: Receiver) -> None:
        """Attach the downstream consumer of delivered packets."""
        self._receiver = receiver

    def add_queue_sample_hook(self, hook: Callable[[float, int], None]) -> None:
        """Register ``hook(now, queue_len)`` called on every enqueue/dequeue."""
        self._sample_hooks.append(hook)

    @property
    def in_service(self) -> bool:
        """Whether a packet is on the wire: dequeued, not yet forwarded."""
        return self._tx_packet is not None

    @property
    def utilization_seconds(self) -> float:
        """Cumulative busy time; divide by elapsed time for utilization.

        Transmissions are charged in full when service starts; a packet
        still on the wire at query time is clipped back to the portion
        actually transmitted so mid-run (or end-of-run) utilization never
        overcounts.
        """
        accum = self._busy_accum
        if self._busy:
            remaining = self._tx_finish - self.sim.now
            if remaining > 0:
                accum -= remaining
        return accum

    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` to the link; returns False if the queue dropped it."""
        if self._receiver is None:
            raise RuntimeError(f"link {self.name} has no receiver connected")
        queue = self.queue
        sim = self.sim
        accepted = queue.enqueue(packet, sim._now)
        hooks = self._sample_hooks
        if hooks:
            now = sim._now
            depth = len(queue._queue)
            for hook in hooks:
                hook(now, depth)
        if accepted and not self._busy:
            self._begin_service()
        return accepted

    def _begin_service(self) -> None:
        """Dequeue the next packet and put it in service."""
        now = self.sim._now
        queue = self.queue
        packet = queue.dequeue(now)
        hooks = self._sample_hooks
        if hooks:
            depth = len(queue._queue)
            for hook in hooks:
                hook(now, depth)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        size = packet.size
        tx = self._tx_times.get(size)
        if tx is None:
            self._tx_times[size] = tx = size * 8 / self.bandwidth_bps
        self._busy_accum += tx
        self._tx_packet = packet
        need = self._tx_finish = now + tx
        # Arm (inlined): a wakeup must be pending no later than the next
        # due time.  Stale (redundant) wakeups are possible -- bare heap
        # entries cannot be cancelled -- but :meth:`_wake` is idempotent,
        # so they only cost a no-op pop.  They arise solely when service
        # starts from idle while a propagation train is still in flight.
        # Entries are pushed straight onto the heap (schedule_fast minus
        # the range check): wake times are structurally >= now.
        in_flight = self._in_flight
        if in_flight and in_flight[0][0] < need:
            need = in_flight[0][0]
        if need < self._armed_time:
            self._armed_time = need
            sim = self.sim
            heappush(sim._heap, (need, sim._seq, self._wake, (), None))
            sim._seq += 1

    def _wake(self) -> None:
        """One fused service step: finish tx, restock, deliver, re-arm."""
        sim = self.sim
        now = sim._now
        if now >= self._armed_time:
            self._armed_time = inf
        packet = self._tx_packet
        in_flight = self._in_flight
        if packet is not None and self._tx_finish <= now:
            self.bytes_forwarded += packet.size
            self.packets_forwarded += 1
            in_flight.append((self._tx_finish + self.propagation_delay, packet))
            # Put the next queued packet in service (inlined _begin_service).
            # Nothing is dequeued (and the queue is not sampled) when
            # nothing is waiting.
            queue = self.queue
            q = queue._queue
            if q:
                packet = q.popleft()
                queue.bytes_queued -= packet.size
                queue.dequeued += 1
                if not q and self._red_queue is not None:
                    self._red_queue._idle_since = now
                if self._sample_hooks:
                    depth = len(q)
                    for hook in self._sample_hooks:
                        hook(now, depth)
                size = packet.size
                tx = self._tx_times.get(size)
                if tx is None:
                    self._tx_times[size] = tx = size * 8 / self.bandwidth_bps
                self._busy_accum += tx
                self._tx_packet = packet
                self._tx_finish = now + tx
            else:
                self._tx_packet = None
                self._tx_finish = inf
                self._busy = False
        if in_flight:
            receiver = self._receiver
            popleft = in_flight.popleft
            delivered = 0
            while in_flight and in_flight[0][0] <= now:
                receiver(popleft()[1])
                delivered += 1
            self.packets_delivered += delivered
        need = self._tx_finish
        if in_flight and in_flight[0][0] < need:
            need = in_flight[0][0]
        if need < self._armed_time:
            self._armed_time = need
            heappush(sim._heap, (need, sim._seq, self._wake, (), None))
            sim._seq += 1
