"""Unit and property tests for packets and queue disciplines."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import Packet, PacketType
from repro.net.queues import DropTailQueue, REDQueue
from repro.net.redmath import red_drop_probability


def make_packet(seq=0, size=1000, flow="f"):
    return Packet(flow_id=flow, seq=seq, size=size)


class TestPacket:
    def test_defaults(self):
        p = make_packet()
        assert p.is_data and not p.is_ack
        assert p.ptype is PacketType.DATA

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Packet(flow_id="f", seq=0, size=0)

    def test_ack_type(self):
        p = Packet(flow_id="f", seq=0, size=40, ptype=PacketType.ACK)
        assert p.is_ack and not p.is_data


class TestDropTail:
    def test_fifo_order(self):
        q = DropTailQueue(10)
        for i in range(5):
            assert q.enqueue(make_packet(seq=i), now=0.0)
        out = [q.dequeue(0.0).seq for _ in range(5)]
        assert out == [0, 1, 2, 3, 4]

    def test_drops_when_full(self):
        q = DropTailQueue(2)
        assert q.enqueue(make_packet(0), 0.0)
        assert q.enqueue(make_packet(1), 0.0)
        assert not q.enqueue(make_packet(2), 0.0)
        assert q.dropped == 1

    def test_dequeue_empty_returns_none(self):
        assert DropTailQueue(1).dequeue(0.0) is None

    def test_drop_hook_called(self):
        q = DropTailQueue(1)
        dropped = []
        q.drop_hook = dropped.append
        q.enqueue(make_packet(0), 0.0)
        q.enqueue(make_packet(1), 0.0)
        assert [p.seq for p in dropped] == [1]

    def test_byte_accounting(self):
        q = DropTailQueue(10)
        q.enqueue(make_packet(0, size=700), 0.0)
        q.enqueue(make_packet(1, size=300), 0.0)
        assert q.bytes_queued == 1000
        q.dequeue(0.0)
        assert q.bytes_queued == 300

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_conservation_invariant(self, ops):
        """enqueued == dequeued + dropped + resident, for any op sequence."""
        q = DropTailQueue(5)
        seq = 0
        for is_enqueue in ops:
            if is_enqueue:
                q.enqueue(make_packet(seq), 0.0)
                seq += 1
            else:
                q.dequeue(0.0)
        assert q.enqueued == q.dequeued + len(q)
        assert q.enqueued + q.dropped == seq


class TestRED:
    def make_red(self, capacity=100, **kwargs):
        defaults = dict(
            min_thresh=10, max_thresh=50, max_p=0.1,
            rng=np.random.default_rng(0), weight=0.002,
        )
        defaults.update(kwargs)
        return REDQueue(capacity, **defaults)

    def test_no_drops_below_min_thresh(self):
        q = self.make_red()
        for i in range(9):
            assert q.enqueue(make_packet(i), now=i * 0.001)
        assert q.dropped == 0

    def test_forced_drop_when_full(self):
        q = self.make_red(capacity=5, min_thresh=100, max_thresh=200)
        for i in range(5):
            q.enqueue(make_packet(i), 0.0)
        assert not q.enqueue(make_packet(5), 0.0)
        assert q.forced_drops == 1

    def test_early_drops_between_thresholds(self):
        q = self.make_red(capacity=1000, weight=1.0)  # avg tracks instantly
        drops_before = q.early_drops
        for i in range(400):
            q.enqueue(make_packet(i), 0.0)
        assert q.early_drops > drops_before

    def test_gentle_region_increases_drop_rate(self):
        gentle = self.make_red(capacity=10_000, weight=1.0, gentle=True)
        # Fill so avg sits between max_thresh and 2*max_thresh.
        accepted = 0
        for i in range(80):
            if gentle.enqueue(make_packet(i), 0.0):
                accepted += 1
        # In the gentle band the drop probability exceeds max_p but is < 1.
        assert 0 < gentle.early_drops + gentle.forced_drops < 80

    def test_non_gentle_cliff(self):
        q = self.make_red(capacity=10_000, weight=1.0, gentle=False)
        # Early drops (p <= max_p) slow the climb; push well past max_thresh.
        for i in range(100):
            q.enqueue(make_packet(i), 0.0)
        assert len(q) >= q.max_thresh
        # avg > max_thresh without gentle: every arrival is force-dropped.
        assert not q.enqueue(make_packet(999), 0.0)
        assert q.forced_drops >= 1

    def test_avg_decays_when_idle(self):
        q = self.make_red(weight=0.5)
        q.set_service_rate(8e6)  # 1 ms per 1000-byte packet
        for i in range(20):
            q.enqueue(make_packet(i), 0.0)
        while q.dequeue(0.0) is not None:
            pass
        avg_before = q.avg
        q.enqueue(make_packet(99), now=1.0)  # after 1000 idle packet-times
        assert q.avg < avg_before * 0.01

    def test_avg_keeps_decaying_across_consecutive_idle_arrivals(self):
        """Regression: avg must not freeze after the first idle arrival."""
        q = self.make_red(weight=0.5, capacity=100)
        q.set_service_rate(8e6)
        for i in range(60):
            q.enqueue(make_packet(i), 0.0)
        while q.dequeue(0.0) is not None:
            pass
        q.enqueue(make_packet(100), now=0.1)
        q.dequeue(0.1)
        first = q.avg
        q.enqueue(make_packet(101), now=5.0)
        assert q.avg < first  # kept decaying during the second idle period

    def test_idle_decay_without_service_rate_falls_back(self):
        """Regression: with no service rate wired up, avg used to freeze
        across idle periods (the idle-decay branch was skipped entirely);
        it must fall back to the mean-packet-size-derived packet time."""
        q = self.make_red(weight=0.5)
        assert not q.has_service_rate
        for i in range(20):
            q.enqueue(make_packet(i), 0.0)
        while q.dequeue(0.0) is not None:
            pass
        avg_before = q.avg
        assert avg_before > 0
        # 10 s idle at the 15 Mb/s fallback is ~18750 packet-times: the
        # average must have decayed to (essentially) zero, not stayed put.
        q.enqueue(make_packet(99), now=10.0)
        assert q.avg < avg_before * 0.01

    def test_idle_decay_keeps_decaying_without_service_rate(self):
        q = self.make_red(weight=0.5)
        for i in range(40):
            q.enqueue(make_packet(i), 0.0)
        while q.dequeue(0.0) is not None:
            pass
        q.enqueue(make_packet(100), now=0.005)
        q.dequeue(0.005)
        first = q.avg
        q.enqueue(make_packet(101), now=1.0)
        assert q.avg < first

    def test_explicit_service_rate_drives_idle_decay_speed(self):
        """A slower link decays less over the same idle period."""
        def decayed_avg(rate_bps):
            q = self.make_red(weight=0.5)
            q.set_service_rate(rate_bps)
            for i in range(20):
                q.enqueue(make_packet(i), 0.0)
            while q.dequeue(0.0) is not None:
                pass
            q.enqueue(make_packet(99), now=0.05)
            return q.avg

        assert decayed_avg(64e3) > decayed_avg(15e6)

    def test_link_wires_service_rate_into_red(self):
        from repro.net.link import Link
        from repro.sim.engine import Simulator

        q = self.make_red()
        assert not q.has_service_rate
        Link(Simulator(), 2e6, 0.01, q)
        assert q.has_service_rate

    def test_dumbbell_wires_service_rate_into_red(self):
        from repro.net.topology import Dumbbell, DumbbellConfig
        from repro.sim.engine import Simulator

        dumbbell = Dumbbell(Simulator(), DumbbellConfig(queue_type="red"))
        assert dumbbell.forward_link.queue.has_service_rate

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            self.make_red(min_thresh=50, max_thresh=10)
        with pytest.raises(ValueError):
            self.make_red(max_p=0.0)
        with pytest.raises(ValueError):
            self.make_red(weight=2.0)
        with pytest.raises(ValueError):
            self.make_red().set_service_rate(0.0)

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=30)
    def test_conservation_invariant(self, arrivals):
        q = self.make_red(capacity=50)
        for i in range(arrivals):
            q.enqueue(make_packet(i), now=i * 0.0005)
            if i % 3 == 0:
                q.dequeue(i * 0.0005)
        assert q.enqueued == q.dequeued + len(q)
        assert q.enqueued + q.dropped == arrivals

    def test_drop_probability_monotone_in_avg(self):
        q = self.make_red()
        probs = []
        for avg in (5, 15, 30, 49, 60, 90):
            q.avg = avg
            probs.append(red_drop_probability(q.params, q.avg))
        assert probs == sorted(probs)
        assert probs[0] == 0.0
