"""Unit tests for link and flow monitors."""

import pytest

from repro.net.link import Link
from repro.net.monitor import FlowMonitor, LinkMonitor
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


def make_packet(flow, seq=0, size=1000):
    return Packet(flow_id=flow, seq=seq, size=size)


class TestLinkMonitor:
    def make(self, capacity=2, bw=8e6):
        sim = Simulator()
        link = Link(sim, bw, 0.01, DropTailQueue(capacity))
        link.connect(lambda p: None)
        monitor = LinkMonitor(sim, link, sample_queue=True)
        return sim, link, monitor

    def test_drops_recorded_with_flow_id(self):
        sim, link, monitor = self.make(capacity=1)
        for i in range(5):
            link.send(make_packet("f", i))
        assert len(monitor.drops) == 3  # 1 transmitting + 1 queued survive
        assert all(fid == "f" for _, fid in monitor.drops)

    def test_loss_rate(self):
        sim, link, monitor = self.make(capacity=1)
        for i in range(4):
            link.send(make_packet("f", i))
        # 2 accepted (1 tx + 1 queued), 2 dropped.
        assert monitor.loss_rate() == pytest.approx(0.5)

    def test_loss_rate_empty_link(self):
        _, _, monitor = self.make()
        assert monitor.loss_rate() == 0.0

    def test_queue_series_collected(self):
        sim, link, monitor = self.make(capacity=10)
        for i in range(3):
            link.send(make_packet("f", i))
        sim.run()
        assert monitor.queue_series()
        depths = [d for _, d in monitor.queue_series()]
        assert max(depths) >= 1

    def test_queue_series_window(self):
        sim, link, monitor = self.make(capacity=10)
        link.send(make_packet("f", 0))
        sim.run()
        assert monitor.queue_series(t_min=100.0) == []

    def test_utilization(self):
        sim, link, monitor = self.make(capacity=10, bw=8e6)
        for i in range(4):
            link.send(make_packet("f", i))
        sim.run()
        # 4 x 1ms busy over a 0.008 s window.
        assert monitor.utilization(0.008) == pytest.approx(0.5)
        assert monitor.utilization(0) == 0.0

    def test_tracer_receives_drop_records(self):
        sim = Simulator()
        tracer = Tracer()
        link = Link(sim, 8e6, 0.01, DropTailQueue(1))
        link.connect(lambda p: None)
        LinkMonitor(sim, link, tracer=tracer, sample_queue=False)
        for i in range(4):
            link.send(make_packet("f", i))
        assert len(tracer.select(category="drop")) == 2

    def test_chained_drop_hooks_preserved(self):
        sim = Simulator()
        link = Link(sim, 8e6, 0.01, DropTailQueue(1))
        link.connect(lambda p: None)
        first = []
        link.queue.drop_hook = lambda p: first.append(p.seq)
        monitor = LinkMonitor(sim, link, sample_queue=False)
        for i in range(3):
            link.send(make_packet("f", i))
        assert first  # the original hook still fires
        assert len(monitor.drops) == len(first)


class TestFlowMonitor:
    def test_arrivals_accumulate_per_flow(self):
        monitor = FlowMonitor()
        monitor.on_packet(1.0, make_packet("a", 0, 500))
        monitor.on_packet(2.0, make_packet("a", 1, 500))
        monitor.on_packet(1.5, make_packet("b", 0, 700))
        assert monitor.bytes_by_flow == {"a": 1000, "b": 700}
        assert monitor.packets_by_flow == {"a": 2, "b": 1}
        assert monitor.flows() == ["a", "b"]

    def test_throughput_window(self):
        monitor = FlowMonitor()
        monitor.on_packet(1.0, make_packet("a", 0, 1000))
        monitor.on_packet(3.0, make_packet("a", 1, 1000))
        assert monitor.throughput_bps("a", 0.0, 2.0) == pytest.approx(4000.0)
        assert monitor.throughput_bps("a", 0.0, 4.0) == pytest.approx(4000.0)

    def test_throughput_unknown_flow_zero(self):
        assert FlowMonitor().throughput_bps("nope", 0, 1) == 0.0

    def test_throughput_invalid_window(self):
        with pytest.raises(ValueError):
            FlowMonitor().throughput_bps("a", 2.0, 1.0)

    def test_tracer_integration(self):
        tracer = Tracer()
        monitor = FlowMonitor(tracer=tracer)
        monitor.on_packet(1.0, make_packet("a"))
        records = tracer.select(category="recv", source="a")
        assert len(records) == 1
        assert records[0].value == 1000


class TestMonitorLiteralValues:
    """The array-backed accumulators, pinned to literal values on tiny inputs."""

    def _fill_flow(self, monitor):
        monitor.on_packet(1.0, make_packet("a", 0, 500))
        monitor.on_packet(2.0, make_packet("a", 1, 700))
        monitor.on_packet(2.5, make_packet("b", 0, 300))
        monitor.on_packet(4.0, make_packet("a", 2, 900))

    def test_flow_monitor_counts_series_and_rates(self):
        monitor = FlowMonitor()
        self._fill_flow(monitor)
        assert monitor.bytes_by_flow == {"a": 2100, "b": 300}
        assert monitor.packets_by_flow == {"a": 3, "b": 1}
        assert monitor.flows() == ["a", "b"]
        series = {"a": [(1.0, 500), (2.0, 700), (4.0, 900)], "b": [(2.5, 300)]}
        for fid, pairs in series.items():
            assert monitor.arrival_series(fid) == pairs
        assert monitor.arrival_series("missing") == []
        # bits over the window length, per flow ("a", "b", "missing")
        expected = {
            (0.0, 2.0): (1200 * 8 / 2.0, 0.0, 0.0),
            (1.0, 2.5): (1200 * 8 / 1.5, 300 * 8 / 1.5, 0.0),
            (0.5, 10.0): (2100 * 8 / 9.5, 300 * 8 / 9.5, 0.0),
            (5.0, 6.0): (0.0, 0.0, 0.0),
        }
        for window, rates in expected.items():
            for fid, rate in zip(("a", "b", "missing"), rates):
                assert monitor.throughput_bps(fid, *window) == rate

    def test_flow_monitor_window_boundaries_inclusive(self):
        monitor = FlowMonitor()
        monitor.on_packet(1.0, make_packet("a", 0, 1000))
        monitor.on_packet(3.0, make_packet("a", 1, 1000))
        # Both endpoints inclusive.
        assert monitor.throughput_bps("a", 1.0, 3.0) == pytest.approx(8000.0)
        assert monitor.throughput_bps("a", 1.0 + 1e-12, 3.0 - 1e-12) == (
            pytest.approx(0.0)
        )

    def test_link_monitor_queue_and_drop_samples(self):
        sim = Simulator()
        link = Link(sim, 8e6, 0.01, DropTailQueue(2))
        link.connect(lambda p: None)
        monitor = LinkMonitor(sim, link, sample_queue=True)
        for i in range(6):
            link.send(make_packet("f", i))
        sim.run()
        # Six back-to-back 1 ms packets into a 2-packet buffer: one goes
        # straight into service (enqueue 1, dequeue 0), two queue up, three
        # are dropped (each still sampled at depth 2), then the buffer
        # drains one per millisecond.
        samples = [(0.0, 1), (0.0, 0), (0.0, 1), (0.0, 2), (0.0, 2),
                   (0.0, 2), (0.0, 2), (0.001, 1), (0.002, 0)]
        assert monitor.queue_series() == samples
        assert monitor.drops == [(0.0, "f")] * 3
        assert len(monitor.drops) == 3
        assert monitor.queue_series(t_min=0.0005) == samples[-2:]
        assert monitor.queue_series(t_min=0.001) == samples[-2:]
        assert monitor.queue_series(t_min=0.0011) == samples[-1:]
