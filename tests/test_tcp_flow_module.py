"""Tests for the TcpFlow / TfrcFlow wiring helpers."""

import pytest

from repro.core.agent import TfrcFlow
from repro.net.path import LossyPath
from repro.sim.engine import Simulator
from repro.tcp.flow import TcpFlow


def make_paths(sim, rtt=0.1):
    return LossyPath(sim, delay=rtt / 2), LossyPath(sim, delay=rtt / 2)


class TestTcpFlow:
    def test_start_at_schedules_future_start(self):
        sim = Simulator()
        fwd, rev = make_paths(sim)
        flow = TcpFlow(sim, "t", fwd, rev)
        flow.start(at=2.0)
        sim.run(until=1.9)
        assert flow.sender.packets_sent == 0
        sim.run(until=3.0)
        assert flow.sender.packets_sent > 0

    def test_stop_halts_sending(self):
        sim = Simulator()
        fwd, rev = make_paths(sim)
        flow = TcpFlow(sim, "t", fwd, rev)
        flow.start()
        sim.run(until=1.0)
        flow.stop()
        count = flow.sender.packets_sent
        sim.run(until=5.0)
        assert flow.sender.packets_sent == count

    def test_cwnd_property(self):
        sim = Simulator()
        fwd, rev = make_paths(sim)
        flow = TcpFlow(sim, "t", fwd, rev)
        assert flow.cwnd == flow.sender.cwnd

    def test_sender_options_forwarded(self):
        sim = Simulator()
        fwd, rev = make_paths(sim)
        flow = TcpFlow(sim, "t", fwd, rev, min_rto=0.5, packets_to_send=7)
        assert flow.sender.rto_estimator.min_rto == 0.5
        assert flow.sender.packets_to_send == 7

    def test_on_data_callback_sees_arrivals(self):
        sim = Simulator()
        fwd, rev = make_paths(sim)
        seen = []
        flow = TcpFlow(sim, "t", fwd, rev, on_data=lambda t, p: seen.append(p.seq))
        flow.start()
        sim.run(until=1.0)
        assert seen and seen == sorted(seen)


class TestTfrcFlowWiring:
    def test_receiver_kwargs_split_from_sender_kwargs(self):
        sim = Simulator()
        fwd, rev = make_paths(sim)
        flow = TfrcFlow(
            sim, "f", fwd, rev,
            history_discounting=False, feedback_interval_rtts=2.0,
            rtt_ewma_weight=0.3,
        )
        assert not flow.receiver.intervals.discounting
        assert flow.receiver.feedback_interval_rtts == 2.0
        assert flow.sender.rtt_ewma_weight == 0.3

    def test_rate_and_loss_properties(self):
        sim = Simulator()
        fwd, rev = make_paths(sim)
        flow = TfrcFlow(sim, "f", fwd, rev)
        flow.start()
        sim.run(until=2.0)
        assert flow.rate == flow.sender.rate
        assert flow.loss_event_rate == flow.receiver.loss_event_rate()

    def test_stop_cancels_both_sides(self):
        sim = Simulator()
        fwd, rev = make_paths(sim)
        flow = TfrcFlow(sim, "f", fwd, rev)
        flow.start()
        sim.run(until=1.0)
        flow.stop()
        sent = flow.sender.packets_sent
        sim.run(until=5.0)
        assert flow.sender.packets_sent == sent

    def test_feedback_loop_established(self):
        sim = Simulator()
        fwd, rev = make_paths(sim)
        flow = TfrcFlow(sim, "f", fwd, rev)
        flow.start()
        sim.run(until=3.0)
        assert flow.sender.feedback_received > 0
        assert flow.sender.srtt is not None
