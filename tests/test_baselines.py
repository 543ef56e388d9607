"""Tests for the related-work baseline protocols (TFRCP, RAP)."""

import json

import numpy as np
import pytest

from repro.baselines.rap import RapFlow
from repro.baselines.tfrcp import TfrcpFlow
from repro.net.monitor import FlowMonitor
from repro.net.path import LossyPath, bernoulli_loss, periodic_loss
from repro.sim.engine import Simulator


def run_baseline(flow_cls, loss_model=None, duration=60.0, rtt=0.1, **kwargs):
    sim = Simulator()
    forward = LossyPath(sim, delay=rtt / 2, loss_model=loss_model)
    reverse = LossyPath(sim, delay=rtt / 2)
    monitor = FlowMonitor()
    flow = flow_cls(
        sim, "b", forward, reverse,
        on_data=lambda t, p: monitor.on_packet(t, p),
        **kwargs,
    )
    flow.start()
    sim.run(until=duration)
    return flow, monitor


class TestTfrcp:
    def test_rate_grows_without_loss(self):
        flow, _ = run_baseline(TfrcpFlow, duration=30.0)
        assert flow.sender.rate > 100 * 1000  # doubled many times

    def test_loss_caps_rate_near_equation(self):
        flow, _ = run_baseline(TfrcpFlow, loss_model=periodic_loss(100), duration=90.0)
        from repro.core.equations import tcp_response_rate

        sender = flow.sender
        expected = tcp_response_rate(1000, sender.srtt, 0.01, 4 * sender.srtt)
        # TFRCP measures raw loss fraction at coarse intervals; match loosely.
        assert sender.rate == pytest.approx(expected, rel=0.8)

    def test_rate_updates_only_at_interval_boundaries(self):
        flow, _ = run_baseline(
            TfrcpFlow, loss_model=periodic_loss(50), duration=21.0,
            update_interval=5.0,
        )
        times = [t for t, _ in flow.sender.rate_history[1:]]
        assert all(abs(t % 5.0) < 1e-6 or abs(t % 5.0 - 5.0) < 1e-6 for t in times)

    def test_poor_transient_response(self):
        """The paper's criticism: between updates TFRCP ignores congestion.

        Onset of heavy loss mid-interval leaves the rate unchanged until the
        next boundary.
        """
        sim = Simulator()
        heavy = {"on": False}
        forward = LossyPath(
            sim, delay=0.05,
            loss_model=lambda p, now: heavy["on"] and p.seq % 2 == 0,
        )
        reverse = LossyPath(sim, delay=0.05)
        flow = TfrcpFlow(sim, "b", forward, reverse, update_interval=5.0)
        flow.start()
        sim.run(until=11.0)  # boundaries at 5, 10
        rate_before = flow.sender.rate
        heavy["on"] = True   # congestion begins at t=11
        sim.run(until=14.5)  # still before the t=15 boundary
        assert flow.sender.rate == rate_before  # no reaction yet
        sim.run(until=15.5)
        assert flow.sender.rate < rate_before   # reacts only at the boundary

    def test_srtt_measured(self):
        flow, _ = run_baseline(TfrcpFlow, loss_model=periodic_loss(100), duration=20.0)
        assert flow.sender.srtt == pytest.approx(0.1, rel=0.1)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TfrcpFlow(sim, "b", LossyPath(sim, 0.1), LossyPath(sim, 0.1),
                      update_interval=0)


class TestRap:
    def test_aimd_sawtooth_under_periodic_loss(self):
        flow, _ = run_baseline(RapFlow, loss_model=periodic_loss(200), duration=60.0)
        sender = flow.sender
        assert sender.loss_events > 3
        rates = [r for _, r in sender.rate_history]
        # Multiplicative decreases present: some rate halvings recorded.
        drops = [b / a for a, b in zip(rates, rates[1:]) if b < a]
        assert drops and min(drops) == pytest.approx(0.5, abs=0.05)

    def test_additive_increase_one_packet_per_rtt(self):
        flow, _ = run_baseline(RapFlow, duration=5.0, rtt=0.1)
        sender = flow.sender
        increases = [
            (t2, r2 - r1)
            for (t1, r1), (t2, r2) in zip(sender.rate_history, sender.rate_history[1:])
            if r2 > r1
        ]
        assert increases
        per_rtt = [delta for _, delta in increases]
        # Each increase step is ~ packet_size / srtt bytes/s.
        assert np.median(per_rtt) == pytest.approx(1000 / 0.1, rel=0.2)

    def test_rate_stabilizes_under_loss(self):
        flow, monitor = run_baseline(
            RapFlow, loss_model=bernoulli_loss(0.02, np.random.default_rng(0)),
            duration=60.0,
        )
        # AIMD equilibrium: rate neither collapses nor explodes.
        rate = flow.sender.rate * 8
        assert 5e4 < rate < 5e7

    def test_no_timeout_modelling_means_higher_rate_at_heavy_loss(self):
        """RAP lacks the t_RTO term, so at heavy loss it outpaces the
        equation -- the coexistence concern the paper raises."""
        from repro.core.equations import tcp_response_rate

        flow, _ = run_baseline(RapFlow, loss_model=periodic_loss(8), duration=80.0)
        sender = flow.sender
        eq_rate = tcp_response_rate(1000, sender.srtt or 0.1, 1 / 8, 4 * (sender.srtt or 0.1))
        assert sender.rate > eq_rate

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            RapFlow(sim, "b", LossyPath(sim, 0.1), LossyPath(sim, 0.1),
                    decrease_factor=1.5)

    def test_loss_bookkeeping_stays_inside_the_scan_window(self):
        """``_detect_losses`` only reads the 50 sequence numbers below
        ``highest_acked - LOSS_GAP``; entries under that window are dropped
        as it advances instead of growing for the life of the flow, and the
        rate trajectory is the one the unpruned sets gave at f2093f7."""
        import hashlib

        from test_golden_digests import GOLDEN, environment

        flow, _ = run_baseline(
            RapFlow, loss_model=bernoulli_loss(0.02, np.random.default_rng(8)),
            duration=250.0,
        )
        sender = flow.sender
        assert sender.packets_sent >= 20_000
        assert sender.loss_events > 100
        window = 50 + sender.LOSS_GAP + 1
        assert len(sender._acked) <= window
        assert len(sender._declared_lost) <= window
        history = repr([(t.hex(), r.hex()) for t, r in sender.rate_history])
        if json.loads(GOLDEN.read_text())["env"] == environment():
            assert hashlib.sha256(history.encode()).hexdigest() == (
                "5c14402400df99092ecaecc63d33bfe5d0758bfa0cdbf96be6614af4c853b01c"
            )


class TestTear:
    def test_rate_grows_without_loss(self):
        from repro.baselines.tear import TearFlow

        flow, _ = run_baseline(TearFlow, duration=20.0)
        # Emulated slow start then congestion avoidance: rate well above the
        # initial 4 kB/s.
        assert flow.sender.rate > 50_000

    def test_emulated_window_halves_on_loss(self):
        from repro.baselines.tear import TearFlow

        flow, _ = run_baseline(TearFlow, loss_model=periodic_loss(50), duration=40.0)
        receiver = flow.receiver
        assert receiver.losses_detected > 0
        # The emulated window stays in the AIMD equilibrium band, far below
        # the lossless trajectory.
        assert receiver.cwnd < 200

    def test_rate_tracks_window_over_rtt(self):
        from repro.baselines.tear import TearFlow

        flow, _ = run_baseline(TearFlow, loss_model=periodic_loss(100), duration=40.0)
        receiver = flow.receiver
        expected = receiver.smoothed_cwnd * 1000 / flow.sender.srtt
        assert flow.sender.rate == pytest.approx(expected, rel=0.3)

    def test_smoother_than_emulated_window(self):
        """The EWMA translation is the point of TEAR: the reported rate
        varies less than the raw emulated window."""
        from repro.baselines.tear import TearFlow

        sim = Simulator()
        forward = LossyPath(sim, delay=0.05, loss_model=periodic_loss(80))
        reverse = LossyPath(sim, delay=0.05)
        flow = TearFlow(sim, "b", forward, reverse)
        raw, smooth = [], []

        def probe():
            raw.append(flow.receiver.cwnd)
            smooth.append(flow.receiver.smoothed_cwnd)
            if sim.now < 40.0:
                sim.schedule_in(0.1, probe)

        flow.start()
        sim.schedule_in(5.0, probe)
        sim.run(until=40.0)
        raw_cov = np.std(raw) / np.mean(raw)
        smooth_cov = np.std(smooth) / np.mean(smooth)
        assert smooth_cov < raw_cov

    def test_comparable_rate_to_tfrc_under_same_loss(self):
        """TEAR and TFRC both target the TCP-fair rate; under identical
        periodic loss their steady rates should be the same order."""
        from repro.baselines.tear import TearFlow
        from repro.core import TfrcFlow

        tear, _ = run_baseline(TearFlow, loss_model=periodic_loss(100), duration=60.0)
        tfrc, _ = run_baseline(TfrcFlow, loss_model=periodic_loss(100), duration=60.0)
        ratio = tear.sender.rate / tfrc.sender.rate
        assert 0.2 < ratio < 5.0
