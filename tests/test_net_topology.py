"""Unit tests for the dumbbell topology and fig03's Dummynet-style pipe."""

import pytest

from repro.experiments.fig03_oscillation import dummynet_pipe
from repro.net.packet import Packet
from repro.net.topology import Dumbbell, DumbbellConfig
from repro.scenarios.builders import RTT_RANGE, build_mixed_dumbbell
from repro.sim.engine import Simulator


def make_packet(flow, seq=0, size=1000):
    return Packet(flow_id=flow, seq=seq, size=size)


class TestDumbbellConfig:
    def test_default_matches_paper(self):
        cfg = DumbbellConfig()
        assert cfg.bandwidth_bps == 15e6
        assert cfg.delay == 0.050
        assert cfg.buffer_packets == 100
        assert cfg.red_min_thresh == 10
        assert cfg.red_max_thresh == 50
        assert cfg.build_queue().gentle

    def test_build_queue_types(self):
        from repro.net.queues import DropTailQueue, REDQueue

        assert isinstance(
            DumbbellConfig(queue_type="droptail").build_queue(), DropTailQueue
        )
        assert isinstance(DumbbellConfig(queue_type="red").build_queue(), REDQueue)
        with pytest.raises(ValueError):
            DumbbellConfig(queue_type="fifo").build_queue()


class TestDumbbell:
    def test_round_trip_through_both_directions(self):
        sim = Simulator()
        config = DumbbellConfig(queue_type="droptail", access_jitter=0.0)
        dumbbell = Dumbbell(sim, config)
        fwd, rev = dumbbell.attach_flow("f", base_rtt=0.1)
        got_fwd, got_rev = [], []
        fwd.connect(lambda p: got_fwd.append(sim.now))
        rev.connect(lambda p: got_rev.append(sim.now))
        fwd.send(make_packet("f"))
        sim.run()
        # one-way: tx (0.533ms) + 50ms bottleneck + 2 access segments of
        # (0.1 - 0.1)/4 = 0 ... base_rtt == 2*delay here, so just tx+delay.
        assert got_fwd and got_fwd[0] == pytest.approx(0.050 + 1000 * 8 / 15e6)

    def test_base_rtt_honored(self):
        sim = Simulator()
        config = DumbbellConfig(queue_type="droptail", access_jitter=0.0)
        dumbbell = Dumbbell(sim, config)
        fwd, rev = dumbbell.attach_flow("f", base_rtt=0.2)
        fwd_time, rtt_time = [], []
        fwd.connect(lambda p: (fwd_time.append(sim.now), rev.send(make_packet("f"))))
        rev.connect(lambda p: rtt_time.append(sim.now))
        fwd.send(make_packet("f"))
        sim.run()
        tx = 1000 * 8 / 15e6
        # Forward one-way: segment + tx + 50ms + segment = 0.025*2 + tx + 0.05
        assert fwd_time[0] == pytest.approx(0.1 + tx)
        # Full RTT: 0.2 + 2 serializations (data fwd + data-size packet back).
        assert rtt_time[0] == pytest.approx(0.2 + 2 * tx)

    def test_flow_isolation(self):
        sim = Simulator()
        dumbbell = Dumbbell(sim, DumbbellConfig(queue_type="droptail", access_jitter=0.0))
        fa, _ = dumbbell.attach_flow("a", 0.1)
        fb, _ = dumbbell.attach_flow("b", 0.1)
        got_a, got_b = [], []
        fa.connect(lambda p: got_a.append(p.flow_id))
        fb.connect(lambda p: got_b.append(p.flow_id))
        fa.send(make_packet("a"))
        fb.send(make_packet("b"))
        sim.run()
        assert got_a == ["a"] and got_b == ["b"]

    def test_duplicate_flow_id_rejected(self):
        sim = Simulator()
        dumbbell = Dumbbell(sim)
        dumbbell.attach_flow("f", 0.1)
        with pytest.raises(ValueError):
            dumbbell.attach_flow("f", 0.1)


    def test_jitter_preserves_per_flow_order(self):
        sim = Simulator()
        config = DumbbellConfig(queue_type="droptail", access_jitter=0.005)
        dumbbell = Dumbbell(sim, config)
        fwd, _ = dumbbell.attach_flow("f", 0.1)
        seqs = []
        fwd.connect(lambda p: seqs.append(p.seq))
        for i in range(200):
            sim.schedule(i * 0.0001, fwd.send, make_packet("f", seq=i))
        sim.run()
        assert seqs == sorted(seqs)

    def test_congestion_occurs_only_at_bottleneck(self):
        """Offered load above the bottleneck rate must produce drops."""
        sim = Simulator()
        config = DumbbellConfig(
            bandwidth_bps=1e6, queue_type="droptail", buffer_packets=5,
            access_jitter=0.0,
        )
        dumbbell = Dumbbell(sim, config)
        fwd, _ = dumbbell.attach_flow("f", 0.1)
        fwd.connect(lambda p: None)
        for i in range(100):
            sim.schedule(i * 0.001, fwd.send, make_packet("f", seq=i))  # 8 Mb/s in
        sim.run()
        assert dumbbell.forward_link.queue.dropped > 0


class TestFig03Pipe:
    """fig03's Dummynet-style pipe: a ``Link`` with a DropTail buffer
    forward, a lossless fixed-delay ``LossyPath`` back."""

    def test_forward_arrives_after_serialization_plus_delay(self):
        sim = Simulator()
        forward, _ = dummynet_pipe(sim, 8e6, delay=0.02, buffer_packets=10)
        arrivals = []
        forward.connect(lambda p: arrivals.append(sim.now))
        forward.send(make_packet("f", 0))
        forward.send(make_packet("f", 1))
        sim.run()
        tx = 1000 * 8 / 8e6
        assert arrivals == [tx + 0.02, 2 * tx + 0.02]

    def test_reverse_is_lossless_at_fixed_delay(self):
        sim = Simulator()
        _, reverse = dummynet_pipe(sim, 8e6, 0.02, 2)
        arrivals = []
        reverse.connect(lambda p: arrivals.append(sim.now))
        assert all(reverse.send(make_packet("f", i, size=40)) for i in range(10))
        sim.run()
        assert arrivals == [0.02] * 10

    def test_forward_drops_on_buffer_overflow(self):
        sim = Simulator()
        forward, _ = dummynet_pipe(sim, 1e6, 0.01, buffer_packets=2)
        forward.connect(lambda p: None)
        # One packet goes straight into service, two wait, the rest drop.
        results = [forward.send(make_packet("f", i)) for i in range(6)]
        assert results == [True, True, True, False, False, False]
        assert forward.queue.dropped == 3

    def test_round_trip_is_serialization_plus_twice_the_delay(self):
        sim = Simulator()
        forward, reverse = dummynet_pipe(sim, 1e6, 0.03, 2)
        echoed = []
        forward.connect(reverse.send)
        reverse.connect(lambda p: echoed.append(sim.now))
        forward.send(make_packet("f"))
        sim.run()
        assert echoed == [pytest.approx(1000 * 8 / 1e6 + 2 * 0.03)]


def realized_base_rtts(bed):
    """Each flow's no-queueing RTT as the dumbbell built it: two bottleneck
    traversals plus the four access segments."""
    dumbbell = bed.dumbbell
    return [
        2 * dumbbell.config.delay + sum(
            port.ingress_delay + port.egress_delay
            for port in (fwd, dumbbell._reverse_ports[flow_id])
        )
        for flow_id, fwd in dumbbell._forward_ports.items()
    ]


class TestBaseRttClipping:
    """``RTT_RANGE`` cites the paper's U(80, 120) ms (section 4.1.2), but
    with the dumbbell's 50 ms one-way bottleneck delay ``attach_flow``
    clips every draw below 100 ms to 100 ms.  Shown on
    ``packet_dumbbell``'s shape: 16 + 16 flows, 32 Mb/s RED, seed 0."""

    @staticmethod
    def _rtts():
        bed = build_mixed_dumbbell(
            n_tfrc=16, n_tcp=16, bandwidth_bps=32e6, queue_type="red", seed=0
        )
        return realized_base_rtts(bed)

    def test_draws_below_twice_the_bottleneck_delay_are_clipped(self):
        rtts = self._rtts()
        assert len(rtts) == 32 and min(rtts) == 0.1
        assert sum(rtt == 0.1 for rtt in rtts) == 17

    @pytest.mark.xfail(
        strict=True,
        reason="known departure: draws below 2 x 50 ms are clipped to "
        "100 ms, so the realized base RTTs span U(100, 120) ms, not the "
        "paper's U(80, 120) ms.  The fix moves every dumbbell digest.",
    )
    def test_realized_base_rtts_span_the_cited_range(self):
        rtts = self._rtts()
        low, high = RTT_RANGE
        assert all(low <= rtt <= high for rtt in rtts)
        assert min(rtts) < low + 0.01 and max(rtts) > high - 0.01
