"""Heap-based discrete-event simulation engine.

The engine is the substrate equivalent of the ns-2 scheduler used in the
paper's evaluation.  Heap entries are ``(time, seq, callback, args,
event)`` tuples; the sequence number breaks ties first-scheduled-first and
makes ordering total and deterministic, so two runs with the same seeds
produce identical traces.

Tuples (rather than objects) are used as heap entries so that heap sifting
compares in C instead of calling a Python ``__lt__``.  Two scheduling paths
exist on top of that representation:

* :meth:`Simulator.schedule` allocates an :class:`Event` handle that can be
  cancelled later (lazily: the heap entry is skipped when popped).
* :meth:`Simulator.schedule_batch` pushes bare entries with no handle at
  all.  They cannot be cancelled, but they skip the ``Event`` allocation.

The per-packet loops -- the link wake chain and the access-segment handoffs
in :mod:`repro.net`, :class:`~repro.sim.process.FastTimer`, the lossy path
-- push the entry :meth:`Simulator.schedule_fast` would push themselves,
with its one ``_seq`` (and its range check, except where the deadline is
``>= now`` by construction).  Nothing in the simulator calls
``schedule_fast``; it is the reference form of that push, and the benchmark
harness times it by name.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Iterable, List, Optional, Tuple

_EMPTY_ARGS: tuple = ()

#: Largest finite float: ``now <= t <= _FMAX`` is the in-range fast check
#: (NaN and +inf fail it, negative/backward times fail it), letting the hot
#: scheduling paths skip a ``math.isfinite`` call per event.
_FMAX = 1.7976931348623157e308


class SimulationError(RuntimeError):
    """Raised for invalid scheduler operations (e.g. scheduling in the past)."""


class Event:
    """A cancellable handle for one scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and can be cancelled.
    Cancellation is lazy: the heap entry stays in place and is skipped when
    popped, which keeps cancellation O(1).  The heap entry carries the
    ordering key and the callback, so the handle holds only the time.
    """

    __slots__ = ("time", "cancelled")

    def __init__(self, time: float) -> None:
        self.time = time
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {state}>"


#: One heap entry: (time, seq, callback, args, event-or-None).
Entry = Tuple[float, int, Callable[..., None], tuple, Optional[Event]]


class Simulator:
    """Discrete-event simulator with a floating-point clock in seconds.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, callback, arg1, arg2)
        sim.run(until=30.0)

    The clock never moves backwards.  ``schedule`` takes an *absolute* time;
    ``schedule_in`` takes a delay relative to :attr:`now`.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Entry] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def _check_time(self, time: float) -> None:
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule at non-finite time {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time:.9f} before current time {self._now:.9f}"
            )

    def schedule(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``.

        Events at the same instant run in the order they were scheduled.
        Raises :class:`SimulationError` if ``time`` precedes the current
        clock or is not finite.  Returns a cancellable handle.
        """
        if not (self._now <= time <= _FMAX):
            self._check_time(time)
        event = Event(time)
        heapq.heappush(self._heap, (time, self._seq, callback, args, event))
        self._seq += 1
        return event

    def schedule_in(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule(self._now + delay, callback, *args)

    def schedule_fast(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple = _EMPTY_ARGS,
    ) -> None:
        """Hot-path scheduling: no ``Event`` handle, not cancellable.

        ``callback(*args)`` runs at ``time``; with the default empty ``args``
        use a bound method or closure.  The self-clocking loops (link wake
        chains, :class:`~repro.sim.process.FastTimer`, access-segment packet
        handoffs) push this same entry inline.
        """
        if not (self._now <= time <= _FMAX):
            self._check_time(time)
        heapq.heappush(self._heap, (time, self._seq, callback, args, None))
        self._seq += 1

    def schedule_batch(
        self, items: Iterable[Tuple[float, Callable[..., None], tuple]]
    ) -> int:
        """Bulk-schedule ``(time, callback, args)`` triples; returns the count.

        Ties within the batch keep the iteration order.  When the batch is at least as large as the pending
        heap the entries are appended and the heap rebuilt in O(n) instead
        of n heap-pushes, which is markedly faster for scenario setup
        (seeding thousands of flow start/arrival events at once).  No
        handles are returned, so batched entries cannot be cancelled.
        """
        staged: List[Entry] = []
        seq = self._seq
        for time, callback, args in items:
            self._check_time(time)
            staged.append((time, seq, callback, args, None))
            seq += 1
        self._seq = seq
        if not staged:
            return 0
        if len(staged) >= len(self._heap):
            self._heap.extend(staged)
            heapq.heapify(self._heap)
        else:
            push = heapq.heappush
            heap = self._heap
            for entry in staged:
                push(heap, entry)
        return len(staged)

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events in order until the heap drains, ``until`` is reached,
        or ``max_events`` have been processed.

        Returns the simulation time when the loop exits.  When ``until`` is
        given and nothing due by ``until`` is left, the clock is advanced to
        ``until`` even if the last event fired earlier, which makes
        back-to-back ``run`` calls well behaved.  A run that ``stop()`` or
        ``max_events`` cuts short leaves the clock at its last event, so
        the next ``run`` never moves it backwards.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        # Every comparison with NaN is false, so a NaN bound would never
        # stop the loop below (only NaN differs from itself).
        if until != until or max_events != max_events:
            raise SimulationError(
                f"run(until={until!r}, max_events={max_events!r}): "
                f"a NaN bound never ends the run"
            )
        self._running = True
        self._stopped = False
        processed = 0
        heap = self._heap
        heappop = heapq.heappop
        # Hoist the per-event None checks: with no bound, +inf horizons
        # and limits make the comparisons unconditionally false.
        horizon = math.inf if until is None else until
        limit = math.inf if max_events is None else max_events
        try:
            while heap and not self._stopped:
                entry = heap[0]
                if entry[0] > horizon:
                    break
                heappop(heap)
                event = entry[4]
                if event is not None and event.cancelled:
                    continue
                self._now = entry[0]
                entry[2](*entry[3])
                processed += 1
                if processed >= limit:
                    break
        finally:
            self._running = False
            self.events_processed += processed
        if (
            until is not None
            and self._now < until
            and not self._stopped
            and not (heap and heap[0][0] <= until)
        ):
            self._now = until
        return self._now
