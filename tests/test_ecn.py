"""Tests for the ECN extension (paper section 7 names ECN as future work).

With ECN enabled, RED marks ECN-capable packets under early congestion
instead of dropping them; the TFRC receiver treats marks as congestion
signals (grouped into loss events like drops), so the sender throttles
without suffering packet loss.
"""

import numpy as np
import pytest

from repro.core import TfrcFlow
from repro.core.loss_events import LossEventDetector
from repro.net.link import Link
from repro.net.monitor import FlowMonitor
from repro.net.packet import Packet
from repro.net.path import LossyPath
from repro.net.queues import REDQueue
from repro.sim.engine import Simulator


def make_red(ecn, capacity=100, weight=1.0):
    queue = REDQueue(
        capacity, min_thresh=5, max_thresh=20, max_p=0.5,
        weight=weight, rng=np.random.default_rng(0),
    )
    queue.ecn = ecn  # as build_mixed_dumbbell switches it on
    return queue


class TestRedEcnMarking:
    def test_capable_packets_marked_not_dropped(self):
        queue = make_red(ecn=True)
        accepted = 0
        for i in range(60):
            packet = Packet("f", i, 1000, ecn_capable=True)
            if queue.enqueue(packet, 0.0):
                accepted += 1
        assert queue.ecn_marks > 0
        assert queue.early_drops == 0
        assert accepted == queue.enqueued

    def test_incapable_packets_still_dropped(self):
        queue = make_red(ecn=True)
        for i in range(60):
            queue.enqueue(Packet("f", i, 1000, ecn_capable=False), 0.0)
        assert queue.early_drops > 0
        assert queue.ecn_marks == 0

    def test_forced_drops_still_drop_capable_packets(self):
        queue = make_red(ecn=True, capacity=10)
        for i in range(30):
            queue.enqueue(Packet("f", i, 1000, ecn_capable=True), 0.0)
        assert queue.forced_drops > 0

    def test_marks_disabled_by_default(self):
        queue = make_red(ecn=False)
        for i in range(60):
            queue.enqueue(Packet("f", i, 1000, ecn_capable=True), 0.0)
        assert queue.ecn_marks == 0
        assert queue.early_drops > 0

    def test_mark_sets_flag_on_packet(self):
        queue = make_red(ecn=True)
        marked = []
        for i in range(60):
            packet = Packet("f", i, 1000, ecn_capable=True)
            queue.enqueue(packet, 0.0)
            if packet.ecn_marked:
                marked.append(packet)
        assert marked
        while True:
            out = queue.dequeue(0.0)
            if out is None:
                break
            # Marked packets stay in the stream (delivered, not dropped).
        assert queue.dropped == queue.forced_drops


class TestDetectorMarks:
    def test_mark_starts_loss_event(self):
        det = LossEventDetector(rtt_fn=lambda: 0.1)
        for seq in range(10):
            det.on_arrival(seq, seq * 0.01)
        event = det.on_congestion_mark(10, 0.5)
        assert event is not None
        assert len(det.events) == 1
        assert det.packets_lost == 0  # a mark is not a loss

    def test_marks_within_rtt_merge(self):
        det = LossEventDetector(rtt_fn=lambda: 0.1)
        det.on_arrival(0, 0.0)
        first = det.on_congestion_mark(1, 0.2)
        second = det.on_congestion_mark(2, 0.25)  # within one RTT
        assert first is not None and second is None
        assert len(det.events) == 1

    def test_marks_and_losses_share_grouping(self):
        det = LossEventDetector(rtt_fn=lambda: 0.05)
        det.on_arrival(0, 0.0)
        det.on_congestion_mark(1, 0.1)
        # A real loss 1 RTT later starts a fresh event.
        for seq, t in [(2, 0.30), (4, 0.32), (5, 0.33), (6, 0.34)]:
            det.on_arrival(seq, t)
        assert len(det.events) == 2


class TestEndToEndEcn:
    def _run(self, ecn, duration=40.0):
        sim = Simulator()
        queue = REDQueue(
            100, min_thresh=10, max_thresh=50, max_p=0.1, weight=0.002,
            rng=np.random.default_rng(2),
        )
        queue.ecn = ecn
        link = Link(sim, 2e6, 0.04, queue)
        monitor = FlowMonitor()

        class LinkPort:
            def send(self, packet):
                return link.send(packet)

            def connect(self, receiver):
                link.connect(receiver)

        reverse = LossyPath(sim, delay=0.04)
        flow = TfrcFlow(
            sim, "f", LinkPort(), reverse,
            on_data=monitor.on_packet, ecn=ecn,
        )
        flow.start()
        sim.run(until=duration)
        return flow, queue, monitor

    def test_ecn_flow_throttles_with_near_zero_loss(self):
        flow, queue, monitor = self._run(ecn=True)
        # The flow saturated the 2 Mb/s link and received congestion signals.
        assert queue.ecn_marks > 0
        assert flow.receiver.loss_event_rate() > 0
        # Early drops were avoided entirely for the capable flow.
        assert queue.early_drops == 0
        # Rate settled near the link capacity, not collapsed.
        throughput = monitor.throughput_bps("f", 20, 40)
        assert throughput > 0.5 * 2e6

    def test_ecn_and_drop_flows_reach_similar_rates(self):
        with_ecn, q_ecn, mon_ecn = self._run(ecn=True)
        without, q_drop, mon_drop = self._run(ecn=False)
        rate_ecn = mon_ecn.throughput_bps("f", 20, 40)
        rate_drop = mon_drop.throughput_bps("f", 20, 40)
        assert rate_ecn == pytest.approx(rate_drop, rel=0.4)
        # But the ECN flow lost (essentially) nothing to early drops.
        assert q_ecn.early_drops == 0
        assert q_drop.early_drops > 0
