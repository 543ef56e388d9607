"""Unit tests for traffic generators (CBR, Pareto ON/OFF, web mice)."""

import numpy as np
import pytest

from repro.net.path import LossyPath
from repro.sim.engine import Simulator
from repro.traffic.cbr import CbrSource
from repro.traffic.onoff import OnOffSource, pareto_draw
from repro.traffic.web import WebTrafficSource


class Sink:
    def __init__(self):
        self.packets = []

    def send(self, packet):
        self.packets.append(packet)
        return True

    def connect(self, receiver):
        pass


class TestCbr:
    def test_rate_matches_configuration(self):
        sim = Simulator()
        sink = Sink()
        source = CbrSource(sim, "cbr", sink, rate_bps=800e3)
        source.start()
        sim.run(until=10.0)
        expected = 800e3 * 10 / 8 / 1000
        assert len(sink.packets) == pytest.approx(expected, abs=2)

    def test_start_delay(self):
        sim = Simulator()
        sink = Sink()
        source = CbrSource(sim, "cbr", sink, rate_bps=8e3)
        source.start(at=5.0)
        sim.run(until=4.9)
        assert sink.packets == []

    def test_stop(self):
        sim = Simulator()
        sink = Sink()
        source = CbrSource(sim, "cbr", sink, rate_bps=800e3)
        source.start()
        sim.schedule(1.0, source.stop)
        sim.run(until=10.0)
        assert len(sink.packets) == pytest.approx(100, abs=2)

    def test_sequence_numbers_increment(self):
        sim = Simulator()
        sink = Sink()
        CbrSource(sim, "cbr", sink, rate_bps=800e3).start()
        sim.run(until=0.1)
        seqs = [p.seq for p in sink.packets]
        assert seqs == list(range(len(seqs)))

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            CbrSource(Simulator(), "cbr", Sink(), rate_bps=0)

    def test_stop_inside_the_send_ends_the_loop(self):
        """The emission re-arms its timer after the send, and not once
        ``stop()`` has run -- even when the send itself stops the source."""
        sim = Simulator()
        sink = Sink()
        source = CbrSource(sim, "cbr", sink, rate_bps=800e3)
        send = sink.send

        def send_then_stop(packet):
            send(packet)
            if len(sink.packets) == 3:
                source.stop()
            return True

        sink.send = send_then_stop
        source.start()
        sim.run(until=1.0)
        assert [p.seq for p in sink.packets] == [0, 1, 2]
        assert not source._timer.pending

    def test_start_is_idempotent(self):
        def run(starts, *also_at):
            sim = Simulator()
            sink = Sink()
            source = CbrSource(sim, "cbr", sink, rate_bps=800e3)
            for _ in range(starts):
                source.start()
            for at in also_at:
                sim.schedule(at, source.start)
            sim.run(until=1.0)
            sends = [(p.seq, p.sent_at) for p in sink.packets]
            return sends, sim.events_processed - len(also_at)

        once = run(1)
        assert len(once[0]) == pytest.approx(100, abs=1)
        assert run(2) == once  # before the first emission
        assert run(1, 0.5) == once  # mid-run, with an emission pending

    def test_start_after_stop_resumes(self):
        sim = Simulator()
        sink = Sink()
        source = CbrSource(sim, "cbr", sink, rate_bps=800e3)
        source.start()
        sim.schedule(0.105, source.stop)
        restart_at = 0.5
        sim.schedule(restart_at, source.start)
        sim.run(until=0.6)
        times = [p.sent_at for p in sink.packets]
        assert not [t for t in times if 0.105 < t < restart_at]
        assert restart_at in times
        assert [p.seq for p in sink.packets] == list(range(len(times)))


class TestParetoDraw:
    def test_mean_approximately_correct(self):
        rng = np.random.default_rng(0)
        draws = [pareto_draw(rng, mean=2.0, shape=1.5) for _ in range(100_000)]
        # Heavy-tailed: the sample mean converges slowly; allow 15%.
        assert np.mean(draws) == pytest.approx(2.0, rel=0.15)

    def test_minimum_is_scale(self):
        rng = np.random.default_rng(1)
        x_m = 1.0 * (1.5 - 1.0) / 1.5
        draws = [pareto_draw(rng, mean=1.0, shape=1.5) for _ in range(10_000)]
        assert min(draws) >= x_m

    def test_heavy_tail_present(self):
        rng = np.random.default_rng(2)
        draws = [pareto_draw(rng, mean=1.0, shape=1.5) for _ in range(100_000)]
        assert max(draws) > 20.0  # infinite-variance tail

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            pareto_draw(rng, mean=0, shape=1.5)
        with pytest.raises(ValueError):
            pareto_draw(rng, mean=1, shape=1.0)


class TestOnOff:
    def test_duty_cycle_about_one_third(self):
        """Mean ON 1 s / OFF 2 s -> ~1/3 of peak rate on average."""
        sim = Simulator()
        sink = Sink()
        source = OnOffSource(
            sim, "o", sink, rng=np.random.default_rng(3),
            peak_rate_bps=500e3,
        )
        assert (source.MEAN_ON, source.MEAN_OFF) == (1.0, 2.0)
        source.start()
        sim.run(until=2000.0)
        achieved = len(sink.packets) * 1000 * 8 / 2000.0
        assert achieved == pytest.approx(500e3 / 3, rel=0.35)

    def test_no_packets_while_off(self):
        sim = Simulator()
        sink = Sink()
        source = OnOffSource(sim, "o", sink, rng=np.random.default_rng(0))
        source.start()
        sim.run(until=50.0)
        # Gaps between packets must include OFF periods >> the 16 ms spacing.
        times = sorted(p.sent_at for p in sink.packets)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps) > 0.5

    def test_stop_cancels_everything(self):
        sim = Simulator()
        sink = Sink()
        source = OnOffSource(sim, "o", sink, rng=np.random.default_rng(0))
        source.start()
        sim.run(until=5.0)
        source.stop()
        count = len(sink.packets)
        sim.run(until=20.0)
        assert len(sink.packets) == count


class TestWebTraffic:
    def make_ports(self, sim):
        """Loopback port pairs: data is delivered; ACKs go back."""
        def factory(flow_id):
            forward = LossyPath(sim, delay=0.01, name=f"{flow_id}-f")
            reverse = LossyPath(sim, delay=0.01, name=f"{flow_id}-r")
            return forward, reverse
        return factory

    def test_connections_start_and_complete(self):
        sim = Simulator()
        source = WebTrafficSource(
            sim, self.make_ports(sim), rng=np.random.default_rng(0),
            arrival_rate=5.0, mean_size_packets=5.0,
        )
        source.start()
        sim.run(until=30.0)
        assert source.connections_started > 50
        assert source.connections_completed > 0.8 * source.connections_started

    def test_max_concurrent_respected(self):
        sim = Simulator()
        source = WebTrafficSource(
            sim, self.make_ports(sim), rng=np.random.default_rng(1),
            arrival_rate=100.0, mean_size_packets=50.0,
        )
        source.MAX_CONCURRENT = 10  # the valve at a limit a short run hits
        source.start()
        worst = [0]

        def probe():
            worst[0] = max(worst[0], len(source._active))
            if sim.now < 5.0:
                sim.schedule_in(0.05, probe)

        sim.schedule_in(0.05, probe)
        sim.run(until=5.0)
        assert worst[0] <= 10

    def test_stop_halts_arrivals(self):
        sim = Simulator()
        source = WebTrafficSource(
            sim, self.make_ports(sim), rng=np.random.default_rng(2),
            arrival_rate=10.0,
        )
        source.start()
        sim.run(until=2.0)
        source.stop()
        started = source.connections_started
        sim.run(until=10.0)
        assert source.connections_started == started

    def test_validation(self):
        with pytest.raises(ValueError):
            WebTrafficSource(
                Simulator(), lambda f: (None, None),
                rng=np.random.default_rng(0), arrival_rate=0,
            )
