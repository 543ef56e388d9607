"""Unit tests for the handle-based ``Timer`` in ``reference_models``, the
oracle ``tests/test_fast_timer.py`` fuzzes ``FastTimer`` against.

The periodic loops that run on ``FastTimer`` are tested with their
owners: ``tests/test_paced_sender_contract.py`` (TFRCP's interval update
and TFRC's no-feedback timer) and ``tests/test_traffic.py``
(``CbrSource``).
"""

from reference_models import Timer
from repro.sim.engine import Simulator


class TestTimer:
    def test_fires_after_interval(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.5)
        sim.run()
        assert fired == [1.5]

    def test_restart_pushes_back(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.schedule(0.5, lambda: timer.restart(1.0))
        sim.run()
        assert fired == [1.5]

    def test_cancel_prevents_fire(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(1.0)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_pending_and_expiry(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.pending
        assert timer.expiry is None
        timer.start(2.0)
        assert timer.pending
        assert timer.expiry == 2.0
        sim.run()
        assert not timer.pending

    def test_can_rearm_from_callback(self):
        sim = Simulator()
        fired = []

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(1.0)

        timer = Timer(sim, on_fire)
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_cancel_idempotent(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.cancel()
        timer.start(1.0)
        timer.cancel()
        timer.cancel()
        sim.run()
        assert not timer.pending
