"""Unit tests for receiver-side loss-event detection."""

import pytest

from repro.core.loss_events import LossEventDetector


def make_detector(rtt=0.1, tolerance=3, events=None):
    detector = LossEventDetector(
        rtt_fn=lambda: rtt,
        on_event=(events.append if events is not None else None),
    )
    detector.REORDER_TOLERANCE = tolerance
    return detector


def feed(detector, seqs_and_times):
    out = []
    for seq, t in seqs_and_times:
        out.extend(detector.on_arrival(seq, t))
    return out


class TestDetection:
    def test_no_gaps_no_events(self):
        det = make_detector()
        events = feed(det, [(i, i * 0.01) for i in range(50)])
        assert events == []
        assert det.packets_lost == 0

    def test_hole_declared_after_tolerance(self):
        det = make_detector(tolerance=3)
        feed(det, [(0, 0.00), (2, 0.02)])   # hole at 1, 1 follower
        assert det.packets_lost == 0
        feed(det, [(3, 0.03)])              # 2 followers
        assert det.packets_lost == 0
        events = feed(det, [(4, 0.04)])     # 3rd follower: declared
        assert det.packets_lost == 1
        assert len(events) == 1
        assert events[0].first_lost_seq == 1

    def test_late_arrival_cancels_hole(self):
        det = make_detector(tolerance=3)
        feed(det, [(0, 0.00), (2, 0.02), (1, 0.03), (3, 0.04), (4, 0.05), (5, 0.06)])
        assert det.packets_lost == 0

    def test_losses_within_rtt_are_one_event(self):
        """Section 3.5.1: multiple drops in one RTT are a single loss event."""
        det = make_detector(rtt=0.1)
        # Arrivals every 10 ms; holes at 1 and 3 -- 20 ms apart < RTT.
        feed(det, [(0, 0.00), (2, 0.02), (4, 0.04), (5, 0.05),
                   (6, 0.06), (7, 0.07), (8, 0.08)])
        assert det.packets_lost == 2
        assert len(det.events) == 1

    def test_losses_beyond_rtt_are_separate_events(self):
        det = make_detector(rtt=0.05)
        arrivals = [(0, 0.0), (2, 0.02)]
        arrivals += [(i, i * 0.01) for i in range(3, 40)]  # hole at 1
        # second hole at 40, interpolated at t=0.40: far beyond 1 RTT later
        arrivals += [(i, i * 0.01) for i in range(41, 50)]
        feed(det, arrivals)
        assert len(det.events) == 2

    def test_long_burst_hole_splits_by_interpolated_time(self):
        """A contiguous hole whose interpolated loss times span more than one
        RTT is split into multiple loss events (RFC 5348 section 5.2)."""
        det = make_detector(rtt=0.05)
        arrivals = [(i, i * 0.01) for i in range(30)]
        # Hole 30..40 interpolates across 0.30..0.40 (> 2 RTTs): 3 events.
        arrivals += [(41, 0.41)] + [(i, i * 0.01) for i in range(42, 50)]
        feed(det, arrivals)
        assert len(det.events) == 3
        assert det.packets_lost == 11

    def test_interval_is_sequence_distance_between_event_starts(self):
        det = make_detector(rtt=0.01)
        arrivals = [(i, i * 0.01) for i in range(10)]        # 0..9 fine
        arrivals += [(11, 0.11)] + [(i, i * 0.01) for i in range(12, 30)]  # hole 10
        arrivals += [(31, 0.31)] + [(i, i * 0.01) for i in range(32, 40)]  # hole 30
        feed(det, arrivals)
        assert len(det.events) == 2
        assert det.events[1].closed_interval == 20  # seq 30 - seq 10

    def test_on_event_callback(self):
        events = []
        det = make_detector(events=events)
        feed(det, [(0, 0.0), (2, 0.02), (3, 0.03), (4, 0.04)])
        assert len(events) == 1

    def test_open_interval_counts_from_event_start(self):
        det = make_detector(rtt=0.01)
        feed(det, [(i, i * 0.01) for i in range(5)])
        assert det.open_interval_packets() == 5  # no event yet: all packets
        feed(det, [(6, 0.06), (7, 0.07), (8, 0.08), (9, 0.09)])  # hole at 5
        assert det.events
        # highest seq 9, event started at seq 5 -> s0 = 4
        assert det.open_interval_packets() == 4

    def test_burst_gap_interpolation(self):
        """A many-packet gap spreads interpolated loss times over the gap."""
        det = make_detector(rtt=0.001, tolerance=1)
        feed(det, [(0, 0.0), (10, 1.0)])
        # 9 holes, spread between t=0 and t=1; far apart (>> rtt) so each is
        # its own event.
        assert det.packets_lost == 9
        assert len(det.events) == 9
        times = [e.time for e in det.events]
        assert times == sorted(times)
        assert 0.0 < times[0] < times[-1] < 1.0

    def test_ndupack_is_three(self):
        """A hole is declared on the third later arrival (NDUPACK = 3)."""
        det = make_detector(tolerance=LossEventDetector.REORDER_TOLERANCE)
        assert LossEventDetector.REORDER_TOLERANCE == 3
        assert feed(det, [(0, 0.0), (2, 0.1), (3, 0.2)]) == []
        assert det.packets_lost == 0
        feed(det, [(4, 0.3)])
        assert det.packets_lost == 1
