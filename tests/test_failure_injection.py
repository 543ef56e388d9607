"""Failure injection: TFRC robustness to hostile path conditions.

The paper's design goals (section 3) include explicit failure behaviour:
feedback starvation must walk the rate down to silence, and the receiver
must tolerate whatever arrival patterns the network produces.  These tests
impose the failures on the full simulated stack and check the protocol
degrades the way the paper specifies.
"""

import numpy as np
import pytest

from repro.core import TfrcFlow
from repro.core.paced import T_MBI
from repro.scenarios import run_single_tfrc_on_lossy_path
from repro.net.monitor import FlowMonitor
from repro.net.path import LossyPath, bernoulli_loss, periodic_loss
from repro.sim import Simulator


def build_flow(sim, forward, reverse, **kwargs):
    monitor = FlowMonitor()
    flow = TfrcFlow(sim, "tfrc", forward, reverse,
                    on_data=monitor.on_packet, **kwargs)
    return flow, monitor


class TestFeedbackPathLoss:
    def test_lossy_reverse_path_still_converges(self):
        """Feedback drops slow adaptation but must not break it."""
        sim = Simulator()
        rng = np.random.default_rng(0)
        forward = LossyPath(sim, delay=0.05, loss_model=periodic_loss(100))
        reverse = LossyPath(sim, delay=0.05, loss_model=bernoulli_loss(0.3, rng))
        flow, monitor = build_flow(sim, forward, reverse)
        flow.start()
        sim.run(until=60.0)
        # 70% of reports arrive; p should still estimate ~1%.
        assert flow.sender.feedback_received > 50
        assert 0.003 < flow.receiver.loss_event_rate() < 0.05
        assert monitor.throughput_bps("tfrc", 30, 60) > 0

    def test_total_feedback_blackout_walks_rate_to_floor(self):
        """Section 3 design goal: no feedback => reduce, ultimately stop.

        Periodic forward loss keeps the pre-blackout rate finite (a clean
        uncapped pipe would let slow start double forever).
        """
        sim = Simulator()
        forward = LossyPath(sim, delay=0.05, loss_model=periodic_loss(100))
        reverse = LossyPath(sim, delay=0.05,
                            loss_model=lambda packet, now: now > 5.0)
        flow, _ = build_flow(sim, forward, reverse)
        flow.start()
        sim.run(until=5.0)
        rate_before = flow.sender.rate
        sim.run(until=120.0)
        assert flow.sender.rate < rate_before / 4
        floor = flow.sender.packet_size / T_MBI
        assert flow.sender.rate >= floor

    def test_feedback_resumes_after_blackout(self):
        """The sender recovers once the reverse path heals."""
        sim = Simulator()
        forward = LossyPath(sim, delay=0.05, loss_model=periodic_loss(100))
        reverse = LossyPath(sim, delay=0.05,
                            loss_model=lambda packet, now: 5.0 < now < 15.0)
        flow, _ = build_flow(sim, forward, reverse)
        flow.start()
        sim.run(until=14.9)
        rate_during = flow.sender.rate
        sim.run(until=40.0)
        assert flow.sender.rate > rate_during
        assert flow.sender.feedback_received > 0


class TestHostileArrivals:
    def test_duplicated_data_packets_do_not_create_loss(self):
        """Duplicate every surviving data packet: duplicates must not be
        misread as gaps or otherwise corrupt the estimator."""
        sim = Simulator()

        class DuplicatingPath(LossyPath):
            def send(self, packet):
                delivered = super().send(packet)
                if delivered:
                    # Re-deliver the same sequence number out of band.
                    self.sim.schedule_in(self.delay + 0.001,
                                         self._receiver, packet)
                return delivered

        # Periodic loss bounds the rate; the duplicates must not change
        # the measured loss event rate (~1/100).
        forward = DuplicatingPath(sim, delay=0.05,
                                  loss_model=periodic_loss(100))
        reverse = LossyPath(sim, delay=0.05)
        flow, _ = build_flow(sim, forward, reverse)
        flow.start()
        sim.run(until=30.0)
        assert 0.005 < flow.receiver.loss_event_rate() < 0.03

    def test_rtt_step_increase_tracked(self):
        """A mid-run RTT step must be absorbed by the EWMA, not crash pacing."""
        sim = Simulator()
        forward = LossyPath(sim, delay=0.02, loss_model=periodic_loss(100))
        reverse = LossyPath(sim, delay=0.02)

        def raise_delay():
            forward.delay = 0.10
            reverse.delay = 0.10

        sim.schedule(20.0, raise_delay)
        flow, _ = build_flow(sim, forward, reverse)
        flow.start()
        sim.run(until=60.0)
        assert flow.sender.srtt == pytest.approx(0.2, rel=0.3)

    def test_rtt_step_decrease_tracked(self):
        sim = Simulator()
        forward = LossyPath(sim, delay=0.10, loss_model=periodic_loss(100))
        reverse = LossyPath(sim, delay=0.10)

        def lower_delay():
            forward.delay = 0.02
            reverse.delay = 0.02

        sim.schedule(20.0, lower_delay)
        flow, _ = build_flow(sim, forward, reverse)
        flow.start()
        sim.run(until=60.0)
        assert flow.sender.srtt == pytest.approx(0.04, rel=0.4)

    def test_burst_loss_of_entire_windows_survivable(self):
        """Periodic total outages (all packets dropped for 0.5 s every 5 s)."""
        sim = Simulator()

        def outage(packet, now):
            return (now % 5.0) < 0.5

        forward = LossyPath(sim, delay=0.05, loss_model=outage)
        reverse = LossyPath(sim, delay=0.05)
        flow, monitor = build_flow(sim, forward, reverse)
        flow.start()
        sim.run(until=60.0)
        # Still sending, still measuring loss, did not divide by zero.
        assert flow.sender.rate > 0
        assert flow.receiver.loss_event_rate() > 0
        assert monitor.throughput_bps("tfrc", 30, 60) > 0

