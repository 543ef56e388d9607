"""Tests for the multicast TFRC building blocks (paper section 6)."""

import math

import numpy as np
import pytest

from repro.multicast import FeedbackSuppression, MulticastTfrcSession
from repro.net.path import periodic_loss
from repro.sim.engine import Simulator


class TestSuppressionTimer:
    def make(self, sim, rate, rng_seed=0, round_duration=1.0, **constants):
        """A suppression timer; ``constants`` (``BIAS_STRENGTH``,
        ``SUPPRESS_FACTOR``) are set on the instance after construction."""
        fired = []
        suppression = FeedbackSuppression(
            sim,
            send_report=lambda: fired.append(sim.now),
            rate_fn=lambda: rate,
            rng=np.random.default_rng(rng_seed),
            round_duration=round_duration,
        )
        for name, value in constants.items():
            setattr(suppression, name, value)
        return suppression, fired

    def test_fires_within_round(self):
        sim = Simulator()
        suppression, fired = self.make(sim, rate=1e5, round_duration=1.0)
        suppression.start_round()
        sim.run(until=1.1)
        assert len(fired) == 1
        assert 0.0 < fired[0] <= 1.0

    def test_low_rate_fires_before_high_rate(self):
        """The bias must order receivers by rate, reliably."""
        for seed in range(5):
            sim = Simulator()
            low, low_fired = self.make(sim, rate=1e4, rng_seed=seed)
            high, high_fired = self.make(sim, rate=5e6, rng_seed=seed + 100)
            low.start_round()
            high.start_round()
            sim.run(until=1.1)
            assert low_fired and high_fired
            assert low_fired[0] < high_fired[0]

    def test_heard_lower_report_suppresses(self):
        sim = Simulator()
        suppression, fired = self.make(sim, rate=1e6)
        suppression.start_round()
        suppression.on_heard_report(reported_rate=1e4)  # someone worse off
        sim.run(until=1.1)
        assert fired == []

    def test_heard_higher_report_does_not_suppress_bottleneck(self):
        sim = Simulator()
        suppression, fired = self.make(sim, rate=1e4)
        suppression.start_round()
        suppression.on_heard_report(reported_rate=1e6)
        sim.run(until=1.1)
        assert len(fired) == 1

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FeedbackSuppression(
                sim, lambda: None, lambda: 1.0,
                rng=np.random.default_rng(0), round_duration=0,
            )

    @pytest.mark.parametrize("own, heard, factor, keeps_timer", [
        (80.0, 100.0, 1.2, True),  # 80 < 100 / 1.2: the new bottleneck
        (83.4, 100.0, 1.2, False),  # within the factor: the report covers us
        (100.0, 100.0, 1.2, False),
        (200.0, 100.0, 1.2, False),  # better off than the reporter
        (99.0, 100.0, 1.0, True),  # factor 1: any lower rate reports
        (100.0, 100.0, 1.0, False),  # an equal rate never does
    ])
    def test_heard_report_decision(self, own, heard, factor, keeps_timer):
        """Section 6: a heard report cancels ours unless our own rate is
        lower than the reported one by more than ``SUPPRESS_FACTOR``."""
        sim = Simulator()
        suppression, fired = self.make(sim, rate=own, SUPPRESS_FACTOR=factor)
        suppression.start_round()
        suppression.on_heard_report(reported_rate=heard)
        assert suppression.pending is keeps_timer
        sim.run(until=1.1)
        assert len(fired) == int(keeps_timer)

    def test_heard_report_after_ours_fired_is_ignored(self):
        sim = Simulator()
        suppression, fired = self.make(sim, rate=1e6)
        suppression.start_round()
        sim.run(until=1.1)
        suppression.on_heard_report(reported_rate=1.0)
        assert fired and suppression.reports_sent == 1

    @pytest.mark.parametrize("rate, fraction", [
        (0.0, math.log(2) / math.log1p(1e6)),  # rates below 1 B/s count as 1
        (1.0, math.log(2) / math.log1p(1e6)),
        (1e3, math.log1p(1e3) / math.log1p(1e6)),
        (1e6, 1.0),  # RATE_SCALE: the end of the round
        (1e9, 1.0),  # above RATE_SCALE: clamped to the end of the round
    ])
    def test_full_bias_delay_is_log_rate_over_log_scale(self, rate, fraction):
        """With ``BIAS_STRENGTH = 1`` there is no jitter: the delay is the
        round length times log(1 + rate) / log(1 + RATE_SCALE)."""
        sim = Simulator()
        suppression, fired = self.make(
            sim, rate=rate, round_duration=2.0, BIAS_STRENGTH=1.0
        )
        suppression.start_round()
        sim.run(until=2.1)
        assert fired == [pytest.approx(2.0 * fraction, rel=1e-12)]

    @pytest.mark.parametrize("bias", [0.6, 0.8, 0.95])
    def test_jitter_never_reorders_well_separated_rates(self, bias):
        """The ``_draw_delay`` guarantee: receivers whose deterministic
        components differ by more than ``(1 - bias) * T`` fire in rate
        order whatever the jitter draws."""
        scale = 1e6
        low = 1.0
        # Pick the high rate so the deterministic gap, T * bias * (u_high -
        # u_low), is just over the jitter's range (1 - bias) * T.
        u_low = math.log1p(low) / math.log1p(scale)
        u_high = u_low + (1 - bias) / bias + 1e-6
        assert u_high < 1.0
        high = math.expm1(u_high * math.log1p(scale))
        for seed in range(20):
            sim = Simulator()
            slow, slow_fired = self.make(
                sim, rate=low, rng_seed=seed, BIAS_STRENGTH=bias
            )
            fast, fast_fired = self.make(
                sim, rate=high, rng_seed=seed + 1000, BIAS_STRENGTH=bias
            )
            slow.start_round()
            fast.start_round()
            sim.run(until=1.1)
            assert slow_fired[0] < fast_fired[0]


class TestSession:
    def make_session(self, sim, loss_periods, delay=0.05, **kwargs):
        specs = [
            (delay, periodic_loss(period) if period else None)
            for period in loss_periods
        ]
        return MulticastTfrcSession(sim, specs, **kwargs)

    def test_rate_tracks_worst_receiver(self):
        """The sender must converge to (roughly) the rate the lossiest
        receiver's control equation allows."""
        sim = Simulator()
        session = self.make_session(sim, [None, 400, 25])  # rx2 is worst
        session.start()
        sim.run(until=60.0)
        worst = session.bottleneck_receiver()
        assert worst.receiver_id.endswith("rx2")
        assert session.sender.rate == pytest.approx(
            worst.calculated_rate(), rel=0.5
        )

    def test_receiver_reports_the_equation_rate_unshaded(self):
        """Each receiver's calculated rate is the control equation at its
        own RTT proxy and loss event rate: no conservatism divisor."""
        from repro.core.equations import tcp_response_rate

        sim = Simulator()
        session = self.make_session(sim, [40])
        session.start()
        sim.run(until=30.0)
        receiver = session.receivers[0]
        p, rtt = receiver.loss_event_rate(), receiver._rtt
        assert p > 0
        assert receiver.calculated_rate() == tcp_response_rate(
            receiver.packet_size, rtt, p, t_rto=4.0 * rtt
        )

    def test_feedback_scales_sublinearly(self):
        """Suppression: reports per round must not grow linearly with N.

        All receivers share the same loss pattern (the hardest case: equal
        rates give the timers no deterministic separation), so duplicates
        come only from firings inside the suppression propagation window.
        """
        totals = {}
        for n in (4, 16):
            sim = Simulator()
            session = self.make_session(sim, [100] * n, seed=1, round_duration=2.0)
            session.start()
            sim.run(until=60.0)
            totals[n] = session.total_reports
        # 4x receivers must yield clearly fewer than 4x reports.
        assert totals[16] < totals[4] * 3.0

    def test_all_receivers_get_data(self):
        sim = Simulator()
        session = self.make_session(sim, [None, None, 200])
        session.start()
        sim.run(until=20.0)
        for receiver in session.receivers:
            assert receiver.packets_received > 10

    def test_slow_start_ends_on_first_loss_report(self):
        sim = Simulator()
        session = self.make_session(sim, [50])
        session.start()
        sim.run(until=30.0)
        assert not session.sender.in_slow_start

    def test_no_feedback_halves_rate(self):
        """If every report path is cut, the sender decays its rate."""
        sim = Simulator()
        session = self.make_session(sim, [200])
        session.start()
        sim.run(until=20.0)
        rate_before = session.sender.rate
        for up in session._up_paths:
            up.loss_model = lambda p, now: True  # blackout
        sim.run(until=40.0)
        assert session.sender.rate < rate_before / 2


    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            MulticastTfrcSession(Simulator(), [])

