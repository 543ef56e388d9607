"""FastTimer semantics: re-arm, cancel races, stale-generation discard,
and randomized equivalence with the handle-based Timer."""

import functools
import random

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import FastTimer, Timer


class TestFastTimerSemantics:
    def test_fires_after_interval(self):
        sim = Simulator()
        fired = []
        timer = FastTimer(sim, lambda: fired.append(sim.now))
        timer.start(1.5)
        sim.run()
        assert fired == [1.5]

    def test_rearm_while_pending_pushes_back(self):
        sim = Simulator()
        fired = []
        timer = FastTimer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.schedule(0.5, lambda: timer.restart(1.0))
        sim.run()
        # The superseded t=1.0 entry self-discards; only t=1.5 fires.
        assert fired == [1.5]

    def test_rearm_earlier_fires_once_at_new_deadline(self):
        sim = Simulator()
        fired = []
        timer = FastTimer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.schedule(0.1, lambda: timer.start(0.5))
        sim.run()
        # New deadline 0.6 fires; the stale entry at 2.0 pops as a no-op.
        assert fired == [0.6]

    def test_cancel_then_fire_race(self):
        """Cancelling after the entry is queued must suppress the fire."""
        sim = Simulator()
        fired = []
        timer = FastTimer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        # Cancel an instant before the deadline: the heap entry still pops
        # at t=1.0 but must discard itself.
        sim.schedule(0.999999, timer.cancel)
        sim.run()
        assert fired == []
        assert not timer.pending

    def test_cancel_then_restart_only_new_generation_fires(self):
        sim = Simulator()
        fired = []
        timer = FastTimer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.cancel()
        timer.start(3.0)
        sim.run()
        assert fired == [3.0]

    def test_stale_generation_discard_counts_no_fire(self):
        """Many superseded armings leave entries that all self-discard."""
        sim = Simulator()
        fired = []
        timer = FastTimer(sim, lambda: fired.append(sim.now))
        for i in range(10):
            timer.start(1.0 + i * 0.1)  # each start supersedes the last
        sim.run()
        assert fired == [1.9]
        # All 10 entries were popped (9 stale + 1 live).
        assert sim.events_processed == 10

    def test_pending_and_expiry(self):
        sim = Simulator()
        timer = FastTimer(sim, lambda: None)
        assert not timer.pending
        assert timer.expiry is None
        timer.start(2.0)
        assert timer.pending
        assert timer.expiry == 2.0
        sim.run()
        assert not timer.pending
        assert timer.expiry is None

    def test_can_rearm_from_callback(self):
        sim = Simulator()
        fired = []

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(1.0)

        timer = FastTimer(sim, on_fire)
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_cancel_idempotent(self):
        sim = Simulator()
        timer = FastTimer(sim, lambda: None)
        timer.cancel()
        timer.start(1.0)
        timer.cancel()
        timer.cancel()
        sim.run()
        assert not timer.pending

    def test_negative_interval_rejected(self):
        sim = Simulator()
        timer = FastTimer(sim, lambda: None)
        with pytest.raises(SimulationError):
            timer.start(-0.5)

    def test_start_pushes_the_entry_schedule_fast_would(self):
        """``start`` writes the heap itself: the same tuple, one sequence
        number, as ``schedule_fast(deadline, partial(on_pop, gen))`` but for
        the generation riding in the entry's ``args`` slot."""
        direct, reference = Simulator(), Simulator()
        for sim in (direct, reference):
            sim.schedule_fast(0.25, lambda: None)
            sim.run()
        timer = FastTimer(direct, lambda: None)
        for interval in (0.5, 0.0, 0.125):
            timer.start(interval)
            reference.schedule_fast(
                reference.now + interval,
                functools.partial(timer._on_pop, timer._gen),
            )
        assert [(t, seq, cb, args) for t, seq, cb, args, _ in direct._heap] == [
            (t, seq, cb.func, cb.args) for t, seq, cb, _, _ in reference._heap
        ]
        assert direct._seq == reference._seq == 4

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_nonfinite_interval_leaves_timer_disarmed(self, bad):
        """Error-path parity with Timer: a failed start() disarms both
        implementations (Timer cancels first, then raises)."""
        for timer_cls in (FastTimer, Timer):
            sim = Simulator()
            fired = []
            timer = timer_cls(sim, lambda: fired.append(sim.now))
            timer.start(1.0)  # a live arming the failed start supersedes
            with pytest.raises(SimulationError):
                timer.start(bad)
            assert not timer.pending, timer_cls.__name__
            assert timer.expiry is None, timer_cls.__name__
            sim.run()
            assert fired == [], timer_cls.__name__


def _fuzz_ops(seed, n_ops=300):
    """A deterministic random schedule of timer operations."""
    rng = random.Random(seed)
    ops = []
    t = 0.0
    for _ in range(n_ops):
        t += rng.random() * 0.4
        if rng.random() < 0.25:
            ops.append((t, "cancel", 0.0))
        else:
            ops.append((t, "start", rng.random() * 0.7))
    return ops


def _drive(timer_cls, seed):
    """Apply one op schedule to a timer; return exact fire times and the
    ``expiry`` it reports after every operation."""
    sim = Simulator()
    fired, expiries = [], []

    def on_fire():
        fired.append(sim.now)
        # Deterministic re-arm from inside the callback: exercises the
        # fire -> restart pattern protocol endpoints use.
        if len(fired) % 3 == 0:
            timer.start(0.21)

    def apply(op, interval):
        if op == "start":
            timer.start(interval)
        else:
            timer.cancel()
        expiries.append((sim.now, timer.expiry))

    timer = timer_cls(sim, on_fire)
    for when, op, interval in _fuzz_ops(seed):
        sim.schedule(when, apply, op, interval)
    sim.run()
    return fired, expiries


class TestFastTimerEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_schedule_matches_legacy_timer(self, seed):
        """Under a random start/cancel/restart schedule (with callback
        re-arms), FastTimer fires at exactly Timer's times and reports
        Timer's ``expiry`` after every operation."""
        assert _drive(FastTimer, seed) == _drive(Timer, seed)

    def test_endpoint_sequence_parity(self):
        """Both implementations consume one scheduler sequence number per
        start, so interleaved same-time events keep their relative order."""
        for timer_cls in (Timer, FastTimer):
            sim = Simulator()
            order = []
            timer = timer_cls(sim, lambda: order.append("timer"))
            timer.start(1.0)
            sim.schedule(1.0, lambda: order.append("event"))
            sim.run()
            # The timer armed first, so its (earlier) sequence number wins
            # the same-time tie on either implementation.
            assert order == ["timer", "event"], timer_cls.__name__
