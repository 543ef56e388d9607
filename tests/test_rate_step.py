"""TFRC's rate rule, ``core/sender.py``'s pure ``rate_step``, and the sender
that applies it, against ``tfrc_sender_reference``.

The reference is the paper's sections 3.2-3.4 written out on their own:
slow start, Eq. 1 under the receive-rate cap, the no-feedback timer and
its halving, the ``T_MBI`` floor, the RTT EWMA and the ``sqrt(R0)/M``
pacing factor.  The oracle drives ``TfrcSender.on_feedback`` and its
no-feedback timer with drawn report streams and compares every decision,
``(time, rate, reason, interpacket interval)``.  Where RFC 5348 differs,
a named test pins the paper's rule and cites the clause.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from reference_models import tfrc_sender_reference
from repro.core import sender as sender_module
from repro.core.equations import tcp_response_rate
from repro.core.receiver import TfrcFeedback
from repro.core.sender import (
    EQUATION, NO_FEEDBACK_HALVE, RECV_CAP, SLOW_START, TfrcSender, rate_step,
)
from repro.net.packet import Packet, PacketType
from repro.sim.engine import SimulationError, Simulator

S = 1000


def report(echo_ts, p, recv_rate, delay=0.0):
    feedback = TfrcFeedback(echo_ts=echo_ts, echo_seq=0, delay=delay, p=p,
                            recv_rate=recv_rate)
    return Packet("t", 0, 40, PacketType.FEEDBACK, payload=feedback)


def sender_decisions(reports, until, weight=0.1):
    """Every rate decision a ``TfrcSender`` makes, ``(time, rate, reason,
    interval)``, fed ``reports`` at their times and run to ``until``.  The
    pacing loop is not under test: it sends the first packet and stops."""
    sim = Simulator()
    sender = TfrcSender(sim, "t", send_packet=lambda packet: None,
                        rtt_ewma_weight=weight)
    decisions = []
    set_rate = sender._set_rate

    def recorded(rate):
        set_rate(rate)
        decisions.append((sim.now, sender.rate, sender.reason,
                          sender._interpacket_interval()))

    sender._set_rate = recorded
    sender._on_send = lambda: None
    sender.start()
    for now, echo_ts, delay, p, recv_rate in reports:
        sim.run(until=now)
        sender.on_feedback(report(echo_ts, p, recv_rate, delay))
    sim.run(until=until)
    return decisions


@st.composite
def report_streams(draw):
    """Gaps inside and far past the no-feedback timer, RTT samples that
    jump by orders of magnitude, ``p`` stepping to and from 0, and
    ``recv_rate`` 0 (nothing received) beside real receive rates."""
    now, reports = 0.0, []
    for _ in range(draw(st.integers(0, 25))):
        now += draw(st.one_of(st.floats(0.001, 1.0), st.floats(1.0, 300.0)))
        rtt = draw(st.floats(0.001, 3.0))
        delay = draw(st.sampled_from([0.0, 0.01, 0.2]))
        p = draw(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)))
        recv_rate = draw(st.one_of(st.just(0.0), st.floats(100.0, 1e7)))
        reports.append((now, now - rtt - delay, delay, p, recv_rate))
    return reports, now + draw(st.floats(0.0, 300.0))


def assert_agree(reports, until, weight=0.1):
    code = sender_decisions(reports, until, weight)
    reference = tfrc_sender_reference(reports, until, weight=weight)
    assert [d[2] for d in code] == [d[2] for d in reference]
    for got, want in zip(code, reference):
        assert got[0::3] == pytest.approx(want[0::3], rel=1e-12)  # time, interval
        assert got[1] == pytest.approx(want[1], rel=1e-12)


class TestOracle:
    @settings(max_examples=300, deadline=None)
    @given(report_streams(), st.sampled_from([0.05, 0.1, 1.0]))
    def test_every_decision_matches_the_reference(self, stream, weight):
        reports, until = stream
        assert_agree(reports, until, weight)

    @pytest.mark.parametrize("reports, reasons", [
        ([], [SLOW_START] + [NO_FEEDBACK_HALVE] * 3),
        ([(1.0, 0.9, 0.0, 0.0, 0.0)], [SLOW_START] * 2 + [NO_FEEDBACK_HALVE] * 3),
        ([(1.0, 0.9, 0.0, 0.01, 0.0)], [SLOW_START, EQUATION] + [NO_FEEDBACK_HALVE] * 8),
        ([(1.0, 0.9, 0.0, 0.01, 1000.0)], [SLOW_START, RECV_CAP] + [NO_FEEDBACK_HALVE] * 3),
        # the timer's deadline and a report at one instant: the expiry first
        ([(2.0, 1.9, 0.0, 0.0, 0.0)],
         [SLOW_START, NO_FEEDBACK_HALVE, SLOW_START] + [NO_FEEDBACK_HALVE] * 2),
    ], ids=["silence", "slow-start", "equation", "recv-cap", "tie-at-expiry"])
    def test_named_streams(self, reports, reasons):
        decisions = sender_decisions(reports, 8.0)
        assert [reason for _, _, reason, _ in decisions] == reasons
        assert_agree(reports, 8.0)


class TestRateStep:
    """The step gives the floats the sender's inline ``min(...)`` forms gave."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1.0, 1e9), st.floats(1e-4, 5.0),
           st.one_of(st.just(0.0), st.floats(1e-8, 1.0)),
           st.one_of(st.just(0.0), st.floats(1e-3, 1e9)))
    def test_same_floats_as_the_min_expressions(self, rate, rtt, p, recv_rate):
        if p <= 0:
            doubled = 2.0 * rate
            cap = 2.0 * recv_rate if recv_rate > 0 else doubled
            expected = min(doubled, cap)
        else:
            expected = tcp_response_rate(S, rtt, p, 4.0 * rtt)
            if recv_rate > 0:
                expected = min(expected, 2.0 * recv_rate)
        assert rate_step(rate, rtt, S, p, recv_rate)[0] == expected

    def test_a_tie_with_the_cap_is_the_equation(self):
        allowed = tcp_response_rate(S, 0.1, 0.01, 0.4)
        assert rate_step(5e4, 0.1, S, 0.01, allowed / 2.0) == (allowed, EQUATION)

    def test_a_nan_equation_result_reaches_the_finiteness_check(self, monkeypatch):
        monkeypatch.setattr(sender_module, "tcp_response_rate",
                            lambda *args: math.nan)
        rate, reason = rate_step(5e4, 0.1, S, 0.01, 2e4)
        assert math.isnan(rate) and reason == EQUATION
        sim = Simulator()
        sender = TfrcSender(sim, "t", send_packet=lambda packet: None)
        sender.start()
        with pytest.raises(SimulationError, match="is not finite"):
            sender.on_feedback(report(-0.1, 0.01, 2e4))


class TestPaperNotRfc5348:
    """The paper's rule, pinned where RFC 5348 says otherwise."""

    @staticmethod
    def _sender():
        sim = Simulator()
        sender = TfrcSender(sim, "t", send_packet=lambda packet: None)
        sender._on_send = lambda: None
        sender.start()
        return sim, sender

    def test_rfc5348_4_3_the_cap_reads_the_latest_report_only(self):
        """RFC 5348 section 4.3 caps at ``2 * max(X_recv_set)``, the recent
        receive rates; here a lower report lowers the cap at once."""
        _, sender = self._sender()
        sender.on_feedback(report(-0.1, 0.0, 50_000.0))
        sender.on_feedback(report(-0.1, 0.001, 10_000.0))
        assert tcp_response_rate(S, 0.1, 0.001, 0.4) > 2 * 50_000.0
        assert (sender.rate, sender.reason) == (20_000.0, RECV_CAP)

    def test_rfc5348_4_2_the_first_rate_is_one_packet_per_half_second(self):
        """RFC 5348 section 4.2 starts at one packet per second, and the
        first feedback sets ``W_init / R`` with ``W_init = min(4s, max(2s,
        4380))`` bytes (section 4.3): 40,000 B/s at R = 0.1 s.  Here the
        rate starts at one packet per 0.5 s, the RTT assumed before the
        first sample, and that feedback only doubles it."""
        sim, sender = self._sender()
        assert sender.rate_history == [(0.0, S / TfrcSender.INITIAL_RTT)]
        assert sender.rate_history == [(0.0, 2000.0)]
        sim.run(until=0.1)
        sender.on_feedback(report(0.0, 0.0, 0.0))
        assert (sender.srtt, sender.rate, sender.reason) == (0.1, 4000.0, SLOW_START)

    def test_rfc5348_4_4_expiry_halves_the_rate_not_x_recv(self):
        """RFC 5348 section 4.4 halves the receive-rate limit ``X_recv`` and
        recomputes ``X`` from it; here ``X`` halves, whatever the last
        report's receive rate: two senders at one rate halve alike."""
        halved = []
        for recv_rate in (4_500.0, 1e6):
            sim, sender = self._sender()
            sender.on_feedback(report(-0.1, 0.0, recv_rate))
            assert sender.rate == 4000.0
            sim.run(until=sender._no_feedback_timer.expiry)
            halved.append((sender.rate, sender.reason))
        assert halved == [(2000.0, NO_FEEDBACK_HALVE)] * 2
