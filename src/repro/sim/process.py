"""The restartable timer the protocol machinery waits on.

TCP's retransmission timer, the TFRC no-feedback and feedback timers, and
the periodic loops -- TFRCP's interval update and every CBR source, which
re-arm their timer at the end of their own callback -- all run on :class:`FastTimer`.  Its armings
ride :meth:`Simulator.schedule_fast` entries tagged with a generation
counter.  Re-arming bumps the generation instead of cancelling; a
superseded entry stays in the heap and self-discards when popped because
its generation no longer matches.  No ``Event`` handle is ever allocated.

``tests/reference_models.py`` keeps the handle-based ``Timer`` it replaced
(each ``start`` cancels the previous :class:`~repro.sim.engine.Event` and
allocates a new one) as the reference ``tests/test_fast_timer.py`` fuzzes
it against: both consume exactly one scheduler sequence number per
``start``, so they order events identically.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Optional

from repro.sim.engine import _FMAX, SimulationError, Simulator


class FastTimer:
    """A single-shot, restartable timer with no per-arming ``Event`` handle.

    Built for hot paths that re-arm per packet (TCP's RTO push-back on
    every ACK).  Each arming pushes one bare
    :meth:`Simulator.schedule_fast` entry carrying the current generation
    number; ``start``/``cancel`` bump the generation, so entries from
    superseded armings self-discard on pop instead of being cancelled up
    front.

    ``start`` pushes its heap entry itself, as :mod:`repro.net.link` does:
    the entry, its range check and its one sequence number are exactly
    what ``schedule_fast`` would push.

    The trade against a handle-based timer is pure bookkeeping: superseded
    entries are popped as (counted) no-op events rather than skipped as
    cancelled ones, and in the heap they are indistinguishable from live
    work.  Consequently a ``run()`` with no ``until`` drains stale entries
    too -- the clock (and ``run``'s return value) advances to the last
    stale deadline, where a cancelled ``Event`` would be skipped -- and
    ``max_events`` budgets count the no-op pops.  A run with ``until`` (as
    every scenario here is) still pops, and counts in ``events_processed``,
    each superseded or cancelled arming whose deadline falls by ``until``
    -- a periodic loop's ``stop()`` mid-run included.  Firing order is the
    handle-based timer's -- both consume one sequence number per
    ``start``, at the same deadline.
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
        # like a handle-based timer's leading cancel(): if scheduling raises
        # (e.g. a non-finite deadline), the timer ends up disarmed.
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
