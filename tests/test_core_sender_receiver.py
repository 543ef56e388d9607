"""TFRC sender/receiver behaviour over controlled paths."""

import math

import pytest

from repro.core import TfrcFlow
from repro.core.equations import tcp_response_rate
from repro.core.loss_events import LossEventDetector
from repro.core.paced import T_MBI
from repro.core.receiver import TfrcFeedback, TfrcReceiver
from repro.core.sender import TfrcDataInfo, TfrcSender
from repro.net.packet import Packet, PacketType
from repro.net.path import LossyPath, bernoulli_loss, periodic_loss
from repro.net.monitor import FlowMonitor
from repro.sim.engine import SimulationError, Simulator

import numpy as np


def run_tfrc(loss_model=None, duration=30.0, rtt=0.1, bw=None, **kwargs):
    sim = Simulator()
    forward = LossyPath(sim, delay=rtt / 2, loss_model=loss_model, bandwidth_bps=bw)
    reverse = LossyPath(sim, delay=rtt / 2)
    monitor = FlowMonitor()
    flow = TfrcFlow(sim, "t", forward, reverse, on_data=monitor.on_packet, **kwargs)
    flow.start()
    sim.run(until=duration)
    return flow, monitor, sim


class TestSlowStart:
    def test_rate_doubles_until_loss(self):
        flow, _, _ = run_tfrc(duration=2.0)
        # From 1 pkt / 0.5 s, several doublings must have occurred.
        assert flow.sender.rate > 8 * flow.sender.packet_size
        assert flow.sender.in_slow_start

    def test_loss_terminates_slow_start(self):
        flow, _, _ = run_tfrc(loss_model=periodic_loss(100), duration=10.0)
        assert not flow.sender.in_slow_start

    def test_slow_start_capped_by_bottleneck(self):
        """The receive-rate cap limits overshoot to ~2x the link rate."""
        bw = 1e6  # 1 Mb/s
        flow, monitor, _ = run_tfrc(duration=5.0, bw=bw)
        # Once the pipe saturates, the allowed rate must not exceed ~2x
        # the bottleneck (plus one doubling step of slack).
        assert flow.sender.rate * 8 <= 2.5 * bw

    def test_history_seeded_after_first_loss(self):
        flow, _, _ = run_tfrc(loss_model=periodic_loss(200), duration=6.0)
        assert flow.receiver.intervals.loss_events >= 1
        assert flow.receiver.loss_event_rate() > 0


class TestSteadyState:
    def test_rate_tracks_equation_under_periodic_loss(self):
        period = 100
        flow, monitor, sim = run_tfrc(loss_model=periodic_loss(period), duration=60.0)
        sender = flow.sender
        p = flow.receiver.loss_event_rate()
        assert p == pytest.approx(1.0 / period, rel=0.35)
        expected = tcp_response_rate(
            sender.packet_size, sender.srtt, p, 4 * sender.srtt
        )
        assert sender.rate == pytest.approx(expected, rel=0.35)

    def test_higher_loss_means_lower_rate(self):
        high, _, _ = run_tfrc(loss_model=periodic_loss(20), duration=40.0)
        low, _, _ = run_tfrc(loss_model=periodic_loss(500), duration=40.0)
        assert high.sender.rate < low.sender.rate

    def test_srtt_converges_to_path_rtt(self):
        flow, _, _ = run_tfrc(loss_model=periodic_loss(100), duration=20.0, rtt=0.08)
        assert flow.sender.srtt == pytest.approx(0.08, rel=0.1)

    def test_bernoulli_loss_rate_measured_correctly(self):
        rng = np.random.default_rng(4)
        flow, _, _ = run_tfrc(
            loss_model=bernoulli_loss(0.02, rng), duration=60.0
        )
        # Loss-event rate <= packet loss rate, same order of magnitude.
        p = flow.receiver.loss_event_rate()
        assert 0.005 < p < 0.05

    def test_smooth_rate_under_stable_loss(self):
        """CoV of the allowed rate in steady state must be small."""
        flow, _, _ = run_tfrc(loss_model=periodic_loss(100), duration=60.0)
        rates = [r for t, r in flow.sender.rate_history if t > 30.0]
        mean = np.mean(rates)
        assert np.std(rates) / mean < 0.15


class TestNoFeedbackTimer:
    def test_rate_halves_without_feedback(self):
        """Cutting the return path must halve the rate repeatedly.

        Periodic forward loss bounds the pre-blackout rate (and keeps the
        5 s warm-up cheap to simulate).
        """
        sim = Simulator()
        forward = LossyPath(sim, delay=0.05, loss_model=periodic_loss(100))
        blackout = {"on": False}
        reverse = LossyPath(
            sim, delay=0.05,
            loss_model=lambda p, now: blackout["on"],
        )
        flow = TfrcFlow(sim, "t", forward, reverse)
        flow.start()
        sim.run(until=5.0)
        rate_before = flow.sender.rate
        blackout["on"] = True
        sim.run(until=15.0)
        assert flow.sender.rate < rate_before / 4

    def test_rate_floor_one_packet_per_64s(self):
        # The halving cadence stretches as the rate falls (the timer is
        # max(4 RTT, 2 packets), i.e. 64 s at the floor), so reaching the
        # floor from the initial rate takes ~130 simulated seconds.
        sim = Simulator()
        forward = LossyPath(sim, delay=0.05)
        reverse = LossyPath(sim, delay=0.05, loss_model=lambda p, n: True)
        flow = TfrcFlow(sim, "t", forward, reverse)
        flow.start()
        sim.run(until=250.0)
        assert flow.sender.rate == pytest.approx(flow.sender.packet_size / T_MBI)

    @pytest.mark.parametrize("srtt, rate, interval", [
        (None, 2000.0, 2.0),       # the 0.5 s initial RTT: 4 R
        (0.1, 100_000.0, 0.4),     # 4 R
        (0.1, 1000.0, 2.0),        # two packets at the allowed rate
        (0.1, 1000 / T_MBI, 128.0),  # two packets at the floor
    ], ids=["initial-rtt", "four-rtts", "two-packets", "at-the-floor"])
    def test_interval_is_four_rtts_or_two_packets(self, srtt, rate, interval):
        sender = TfrcSender(Simulator(), "t", send_packet=lambda p: None)
        sender.srtt, sender.rate = srtt, rate
        assert sender._no_feedback_interval() == interval

    def test_expiry_halves_ends_slow_start_and_rearms(self):
        sim = Simulator()
        sender = TfrcSender(sim, "t", send_packet=lambda p: None)
        sender.start()
        assert sender.in_slow_start and sender._no_feedback_timer.expiry == 2.0
        sim.run(until=2.0)
        assert sender.rate_history == [(0.0, 2000.0), (2.0, 1000.0)]
        assert not sender.in_slow_start
        assert sender._no_feedback_timer.expiry == 2.0 + 2.0

    def test_feedback_pushes_the_timer_back(self):
        sim = Simulator()
        sender = TfrcSender(sim, "t", send_packet=lambda p: None)
        sender.start()
        sim.run(until=1.0)
        sender.on_feedback(forged_feedback(p=0.0, recv_rate=0.0, echo_ts=0.9))
        # srtt 0.1 s, rate doubled to 4 kB/s: the timer restarts at
        # 1.0 + max(0.4, 2 s / X) = 1.5, and the arming for 2.0 is gone.
        assert sender._no_feedback_timer.expiry == 1.5
        sim.run(until=2.4)
        assert [t for t, _ in sender.rate_history] == [0.0, 1.0, 1.5]


class TestInterpacketSpacing:
    """Driven through ``_sample_rtt``, the only place sqrt(R0)/M changes."""

    @staticmethod
    def _sender(adjust):
        sender = TfrcSender(Simulator(), "t", send_packet=lambda p: None,
                            interpacket_adjustment=adjust, rtt_ewma_weight=0.1)
        sender.rate = 10_000.0
        return sender, sender.packet_size / sender.rate

    def test_adjustment_uses_sqrt_ratio(self):
        sender, base = self._sender(adjust=True)
        assert sender._interpacket_interval() == base  # no RTT sample yet
        sender._sample_rtt(0.04)
        # First sample: M = sqrt(R0), so the factor is exactly 1.
        assert sender._interpacket_interval() == base
        m = math.sqrt(0.04)
        for rtt in (0.16, 0.09, 0.25, 0.01):
            sender._sample_rtt(rtt)
            m += 0.1 * (math.sqrt(rtt) - m)
            # t = s/T * sqrt(R0)/M, the identical product (not approx).
            assert sender._interpacket_interval() == base * (math.sqrt(rtt) / m)
        for ignored in (0.0, -0.3):
            sender._sample_rtt(ignored)  # R0 and M stand
            assert sender._interpacket_interval() == base * (math.sqrt(0.01) / m)
        sender.rate = 40_000.0  # the factor rides on whatever s/T is now
        assert sender._interpacket_interval() == (
            sender.packet_size / 40_000.0 * (math.sqrt(0.01) / m)
        )

    def test_adjustment_disabled_gives_plain_spacing(self):
        sender, base = self._sender(adjust=False)
        for rtt in (0.04, 0.4, 0.01):
            sender._sample_rtt(rtt)
            assert sender._interpacket_interval() == base




class TestFeedback:
    def test_receiver_reports_once_per_rtt(self):
        # Rare loss bounds slow start (a clean uncapped pipe would double
        # forever); after it the receiver must keep reporting every RTT.
        flow, _, sim = run_tfrc(
            loss_model=periodic_loss(2000), duration=10.0, rtt=0.1
        )
        # ~10 s / 0.1 s = 100 reports expected, within a loose band
        # (expedited reports add a few).
        assert 60 <= flow.receiver.feedback_sent <= 170

    def test_expedited_feedback_on_loss(self):
        flow, _, _ = run_tfrc(loss_model=periodic_loss(50), duration=5.0)
        assert flow.receiver.feedback_sent > 30  # regular + expedited

    def test_sparser_feedback_interval_reduces_report_count(self):
        """The feedback-frequency ablation knob thins regular reports."""
        dense, _, _ = run_tfrc(loss_model=periodic_loss(2000), duration=10.0,
                               rtt=0.1)
        sparse, _, _ = run_tfrc(loss_model=periodic_loss(2000), duration=10.0,
                                rtt=0.1, feedback_interval_rtts=4.0)
        assert sparse.receiver.feedback_sent < dense.receiver.feedback_sent / 2

    def test_feedback_interval_validation(self):
        with pytest.raises(ValueError):
            run_tfrc(duration=0.1, feedback_interval_rtts=0.0)


def forged_feedback(p=0.01, recv_rate=50_000.0, echo_ts=0.0):
    report = TfrcFeedback(echo_ts=echo_ts, echo_seq=0, delay=0.0, p=p,
                          recv_rate=recv_rate)
    return Packet("t", 0, 40, PacketType.FEEDBACK, payload=report)


class TestBalanceRule:
    """Every feedback report is checked, always: ``p`` in [0, 1] and
    ``recv_rate >= 0`` before the update, ``rate <= max(2 * recv_rate,
    s / T_MBI)`` after it when ``recv_rate > 0``."""

    @staticmethod
    def _sender(cls=TfrcSender):
        sim = Simulator()
        sender = cls(sim, "flow-7", send_packet=lambda p: None)
        sender.start()
        sim.run(until=0.25)
        return sender

    @pytest.mark.parametrize("p, recv_rate", [
        (1.5, 50_000.0), (-0.1, 50_000.0), (math.nan, 50_000.0),
        (0.01, -1.0), (0.01, math.nan),
    ])
    def test_out_of_range_report_names_flow_and_time(self, p, recv_rate):
        sender = self._sender()
        rate, received = sender.rate, sender.feedback_received
        with pytest.raises(SimulationError, match=r"flow flow-7: .*t=0\.25"):
            sender.on_feedback(forged_feedback(p, recv_rate))
        assert (sender.rate, sender.feedback_received) == (rate, received)

    @pytest.mark.parametrize("p, recv_rate", [
        (0.0, 0.0), (1.0, 0.0), (0.0, 2e4), (0.05, 2e4), (1.0, 1e9),
    ])
    def test_in_range_reports_pass(self, p, recv_rate):
        sender = self._sender()
        sender.on_feedback(forged_feedback(p, recv_rate))
        assert sender.rate <= max(2 * recv_rate or math.inf, sender.min_rate)

    def test_floor_above_twice_the_receive_rate_is_allowed(self):
        sender = self._sender()
        tiny = sender.min_rate / 10
        sender.on_feedback(forged_feedback(0.5, tiny))
        assert sender.rate == sender.min_rate > 2 * tiny

    def test_update_past_twice_the_receive_rate_raises(self):
        class Overshooting(TfrcSender):
            def _update_rate(self, feedback):
                self._set_rate(3.0 * feedback.recv_rate)

        sender = self._sender(Overshooting)
        with pytest.raises(SimulationError, match=r"flow flow-7: rate 150000\.0"):
            sender.on_feedback(forged_feedback(0.01, 50_000.0))


class TestReceiverReportCheck:
    """The receiver checks the ``p`` it is about to report, once per
    report: outside [0, 1] (NaN included) raises, naming the flow and the
    sim-time, and nothing is sent."""

    @staticmethod
    def _report(p):
        sim, reports = Simulator(), []
        receiver = TfrcReceiver(sim, "flow-9", send_feedback=reports.append)
        # forged history: the estimator answers p whatever it has seen
        receiver.intervals.loss_event_rate = lambda: p
        sim.run(until=0.25)
        receiver.receive(Packet("flow-9", 0, 1000, PacketType.DATA, sent_at=0.2))
        return reports

    @pytest.mark.parametrize("p", [math.nan, -0.1, 1.5])
    def test_out_of_range_p_names_flow_and_time(self, p):
        with pytest.raises(
            SimulationError, match=r"flow flow-9: loss event rate .* at t=0\.25"
        ):
            self._report(p)

    @pytest.mark.parametrize("p", [0.0, 0.05, 1.0])
    def test_in_range_p_is_reported(self, p):
        [packet] = self._report(p)
        assert packet.payload.p == p


class TestReceiverHistoryCheck:
    """After every interval close the receiver checks its WALI history; a
    planted violation raises at the next loss event, naming the flow, the
    sim-time and the offending slot."""

    @staticmethod
    def _deliver(receiver, seqs):
        for seq in seqs:
            receiver.receive(Packet("flow-3", seq, 1000, PacketType.DATA, sent_at=0.0))

    def _second_loss_after(self, plant):
        sim = Simulator()
        receiver = TfrcReceiver(sim, "flow-3", send_feedback=lambda packet: None)
        sim.run(until=1.5)
        self._deliver(receiver, [*range(10), *range(11, 21)])  # loses 10
        assert receiver.intervals.loss_events >= 1
        plant(receiver.intervals)
        self._deliver(receiver, range(22, 32))  # loses 21

    def test_clean_history_passes(self):
        self._second_loss_after(lambda history: None)

    def test_discount_above_one_names_its_slot(self):
        def plant(history):
            history._discounts[0] = 1.5

        with pytest.raises(
            SimulationError,
            match=r"flow flow-3: WALI history slot 1: discount 1\.5 is "
            r"outside \(0, 1\] at t=1\.5",
        ):
            self._second_loss_after(plant)

    def test_nan_interval_names_its_slot(self):
        def plant(history):
            history._intervals[0] = math.nan

        with pytest.raises(
            SimulationError,
            match=r"flow flow-3: WALI history slot 1: interval nan is not "
            r"finite and >= 1 at t=1\.5",
        ):
            self._second_loss_after(plant)

    def test_length_mismatch_names_both_lengths(self):
        def plant(history):
            history._discounts.append(1.0)

        with pytest.raises(
            SimulationError,
            match=r"flow flow-3: WALI history holds 3 intervals and 4 "
            r"discounts \(n=8\) at t=1\.5",
        ):
            self._second_loss_after(plant)


class TestLossHistoryDepartures:
    """Two known departures in the receiver's loss history, pinned until the
    digest-regeneration protocol lets them move every TFRC digest.  The
    stream: seqs 0-299 at 10 ms spacing with R = 100 ms, seqs 100 and 130
    lost (two loss events, declared at seqs 103 and 133)."""

    @staticmethod
    def _receiver():
        sim = Simulator()
        receiver = TfrcReceiver(sim, "f", send_feedback=lambda packet: None)
        seeds, seed = [], receiver.intervals.seed
        receiver.intervals.seed = lambda value: (seeds.append(value), seed(value))
        gaps, history = [], None
        for i, seq in enumerate(s for s in range(300) if s not in (100, 130)):
            sim.run(until=i * 0.01)
            receiver.receive(Packet("f", seq, 1000, sent_at=sim.now,
                                    payload=TfrcDataInfo(0.1)))
            if receiver.detector.events:
                gaps.append(receiver.detector.open_interval_packets()
                            - receiver.intervals.open_interval)
                if history is None:
                    history = receiver.intervals.history
        return seeds, history, gaps

    def test_open_interval_lags_the_detector_by_ndupack(self):
        _, _, gaps = self._receiver()
        assert set(gaps) == {LossEventDetector.REORDER_TOLERANCE}

    @pytest.mark.xfail(
        strict=True,
        reason="known departure: after every loss event ALI's open interval "
        "runs NDUPACK (3) packets short of the detector's, whose geometry "
        "counts from the lost packet.  The fix moves every TFRC digest.",
    )
    def test_open_interval_is_kept_in_step_with_the_detector(self):
        _, _, gaps = self._receiver()
        assert set(gaps) == {0.0}

    def test_slow_start_interval_stays_in_the_history(self):
        seeds, history, _ = self._receiver()
        assert len(seeds) == 1
        assert history == [100.0, seeds[0]]

    @pytest.mark.xfail(
        strict=True,
        reason="known departure: the first loss closes the 100-packet "
        "slow-start interval on top of the synthetic one, which should be "
        "the entire initial history.  The fix moves every TFRC digest.",
    )
    def test_synthetic_interval_is_the_entire_initial_history(self):
        seeds, history, _ = self._receiver()
        assert history == seeds


class TestReceiveRateWindowDeparture:
    """8e, pinned until the digest-regeneration protocol lets it move every
    TFRC digest: ``receive_rate`` prunes arrivals older than ``now -
    max(R, 50 ms)`` with the ``R`` in force at each read, so after ``R``
    grows the wider window cannot see what a narrower one pruned.  The
    stream: seqs 0, 2, 3 at 40 ms spacing with no RTT sample (the 50 ms
    floor), then seqs 4 and 5 with R = 100 ms.  Seq 1's loss is declared at
    seq 4 (t = 0.16 s), whose 100 ms window holds the arrivals at 0.08,
    0.12 and 0.16 s (30 kB/s, a synthetic interval of 8.86 packets); the
    feedback read at 0.14 s pruned the one at 0.08 s."""

    ARRIVALS = [(0, 0.04, 0.0), (2, 0.08, 0.0), (3, 0.12, 0.0),
                (4, 0.16, 0.1), (5, 0.20, 0.1)]

    def _run(self):
        """The receive rate read when the first loss seeds the history, and
        the synthetic interval it gave."""
        sim = Simulator()
        receiver = TfrcReceiver(sim, "f", send_feedback=lambda packet: None)
        rates, seeds, seed = [], [], receiver.intervals.seed

        def seeded(value):
            rates.append(receiver.receive_rate())
            seeds.append(value)
            seed(value)

        receiver.intervals.seed = seeded
        for seq, now, rtt in self.ARRIVALS:
            sim.run(until=now)
            receiver.receive(Packet("f", seq, 1000, sent_at=now,
                                    payload=TfrcDataInfo(rtt)))
        return rates, [round(value, 2) for value in seeds]

    def test_a_grown_window_misses_what_a_narrower_one_pruned(self):
        assert self._run() == ([20000.0], [6.86])

    @pytest.mark.xfail(
        strict=True,
        reason="known departure (ROADMAP 8e): after R grows, receive_rate "
        "cannot see the arrivals a narrower window pruned, so the first "
        "interval is synthesized from 2 packets in the last RTT, not 3 "
        "(6.86 packets, not 8.86).  The fix moves every TFRC digest.",
    )
    def test_a_grown_window_sees_every_arrival_inside_it(self):
        assert self._run() == ([30000.0], [8.86])


class TestRateHistoryBounding:
    def _sender(self, **kwargs):
        from repro.core.sender import TfrcSender
        from repro.sim.engine import Simulator

        sim = Simulator()
        sender = TfrcSender(sim, "f", send_packet=lambda p: None, **kwargs)
        return sim, sender

    def test_unbounded_by_default(self):
        sim, sender = self._sender()
        for _ in range(500):
            sender._set_rate(sender.rate)
        assert len(sender.rate_history) == 500


