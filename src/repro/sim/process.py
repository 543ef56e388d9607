"""Restartable timers on top of the event loop.

Every piece of protocol machinery that waits runs on one of these: TCP's
retransmission timer, the TFRC send, no-feedback and feedback timers, and
the periodic loops -- RAP's per-RTT increase, TFRCP's interval update, the
multicast round, TEAR's report timer and every CBR source -- which re-arm
their timer at the end of their own callback.

Two timer classes share one interface:

* :class:`FastTimer` -- what all of the above run on: armings ride
  :meth:`Simulator.schedule_fast` entries tagged with a generation counter.
  Re-arming bumps the generation instead of cancelling; a superseded entry
  stays in the heap and self-discards when popped because its generation no
  longer matches.  No ``Event`` handle is ever allocated.
* :class:`Timer` -- each ``start`` cancels the previous
  :class:`~repro.sim.engine.Event` handle and allocates a new one, so a
  cancelled arming never reaches the handler, is never counted as an
  event, and an unbounded ``run()`` stops at the last live event.  The
  multicast feedback-suppression timers, which a heard report cancels,
  run on it, and it is the reference ``FastTimer`` is fuzzed against.

Both consume exactly one scheduler sequence number per ``start``, so they
order events identically (``tests/test_fast_timer.py`` fuzzes one against
the other).
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Optional

from repro.sim.engine import _FMAX, Event, SimulationError, Simulator


class Timer:
    """A single-shot, restartable timer.

    The callback fires once, ``interval`` seconds after the most recent
    ``start``/``restart``.  Starting a pending timer reschedules it; this
    mirrors how TCP's RTO timer is pushed back on every new ACK.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None

    @property
    def pending(self) -> bool:
        """True while a fire is scheduled and not yet delivered."""
        return self._event is not None and not self._event.cancelled

    @property
    def expiry(self) -> Optional[float]:
        """Absolute time the timer will fire, or None if not pending."""
        if self.pending:
            assert self._event is not None
            return self._event.time
        return None

    def start(self, interval: float) -> None:
        """(Re)arm the timer to fire ``interval`` seconds from now."""
        self.cancel()
        self._event = self._sim.schedule_in(interval, self._fire)

    def restart(self, interval: float) -> None:
        """Alias of :meth:`start`; reads better at call sites that re-arm."""
        self.start(interval)

    def cancel(self) -> None:
        """Disarm the timer if pending."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class FastTimer:
    """A single-shot, restartable timer with no per-arming ``Event`` handle.

    Drop-in replacement for :class:`Timer` on hot paths that re-arm per
    packet (the TFRC send timer, TCP's RTO push-back on every ACK).  Each
    arming pushes one bare :meth:`Simulator.schedule_fast` entry carrying the
    current generation number; ``start``/``cancel`` bump the generation, so
    entries from superseded armings self-discard on pop instead of being
    cancelled up front.

    ``start`` pushes its heap entry itself, as :mod:`repro.net.link` does:
    the entry, its range check and its one sequence number are exactly
    what ``schedule_fast`` would push.

    The trade against :class:`Timer` is pure bookkeeping: superseded entries
    are popped as (counted) no-op events rather than skipped as cancelled
    ones, and in the heap they are indistinguishable from live work.
    Consequently a ``run()`` with no ``until`` drains stale entries too --
    the clock (and ``run``'s return value) advances to the last stale
    deadline, where a cancelled ``Timer`` event would be skipped --
    and ``max_events`` budgets count the no-op pops.  A run with ``until``
    (as every scenario here is) still pops, and counts in
    ``events_processed``, each superseded or cancelled arming whose deadline
    falls by ``until`` -- a periodic loop's ``stop()`` mid-run included.  Firing
    order is identical either way -- both implementations consume one
    sequence number per ``start``, at the same deadline.
    """

    __slots__ = ("_sim", "_callback", "_gen", "_deadline", "_on_pop")

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._gen = 0
        self._deadline: Optional[float] = None
        # One bound method reused for every arming (bound-method creation is
        # an allocation; hoisting it makes start() allocation-free).
        self._on_pop = self._pop

    @property
    def pending(self) -> bool:
        """True while a fire is scheduled and not yet delivered."""
        return self._deadline is not None

    @property
    def expiry(self) -> Optional[float]:
        """Absolute time the timer will fire, or None if not pending."""
        return self._deadline

    def start(self, interval: float) -> None:
        """(Re)arm the timer to fire ``interval`` seconds from now."""
        if interval < 0:
            raise SimulationError(f"negative delay {interval!r}")
        # Supersede any prior arming before attempting the push, exactly
        # like Timer.start's leading cancel(): if scheduling raises (e.g.
        # a non-finite deadline), both implementations end up disarmed.
        gen = self._gen + 1
        self._gen = gen
        self._deadline = None
        sim = self._sim
        now = sim._now
        deadline = now + interval
        if not (now <= deadline <= _FMAX):
            sim._check_time(deadline)
        heappush(sim._heap, (deadline, sim._seq, self._on_pop, (gen,), None))
        sim._seq += 1
        self._deadline = deadline

    #: Alias of :meth:`start`; reads better at call sites that re-arm.
    restart = start

    def cancel(self) -> None:
        """Disarm the timer if pending (the heap entry self-discards)."""
        self._gen += 1
        self._deadline = None

    def _pop(self, gen: int) -> None:
        if gen != self._gen:
            return  # stale entry from a superseded arming or a cancel
        self._deadline = None
        self._callback()
