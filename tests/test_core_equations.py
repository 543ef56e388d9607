"""Unit and property tests for the control equations."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.equations import (
    DELTA_T_SIMPLE_BOUND,
    analytic_rate_increase,
    invert_response,
    simple_response_rate,
    tcp_response_rate,
)


class TestTcpResponseRate:
    def test_known_value(self):
        # p=0.01, R=0.1, s=1000, t_RTO=0.4:
        # denom = 0.1*sqrt(2*.01/3) + 0.4*3*sqrt(3*.01/8)*.01*(1+32*.0001)
        rtt, p, trto = 0.1, 0.01, 0.4
        denom = rtt * math.sqrt(2 * p / 3) + trto * 3 * math.sqrt(3 * p / 8) * p * (
            1 + 32 * p * p
        )
        assert tcp_response_rate(1000, rtt, p, trto) == pytest.approx(1000 / denom)

    def test_decreasing_in_p(self):
        rates = [
            tcp_response_rate(1000, 0.1, p, 0.4)
            for p in (0.001, 0.01, 0.05, 0.1, 0.3, 0.8)
        ]
        assert rates == sorted(rates, reverse=True)

    def test_inversely_proportional_to_rtt_at_low_p(self):
        fast = tcp_response_rate(1000, 0.05, 0.001, 0.2)
        slow = tcp_response_rate(1000, 0.10, 0.001, 0.4)
        assert fast / slow == pytest.approx(2.0, rel=0.01)

    def test_proportional_to_packet_size(self):
        small = tcp_response_rate(500, 0.1, 0.01, 0.4)
        large = tcp_response_rate(1000, 0.1, 0.01, 0.4)
        assert large / small == pytest.approx(2.0)

    def test_timeout_term_dominates_at_high_loss(self):
        """At high p the t_RTO term must reduce the rate well below the
        simple sqrt model (the paper: t_RTO matters when loss is high)."""
        p = 0.3
        with_rto = tcp_response_rate(1000, 0.1, p, t_rto=0.4)
        sqrt_only = simple_response_rate(1000, 0.1, p)
        assert with_rto < sqrt_only / 3

    def test_agrees_with_simple_at_low_loss(self):
        p = 1e-4
        eq1 = tcp_response_rate(1000, 0.1, p, t_rto=0.4)
        simple = simple_response_rate(1000, 0.1, p)
        assert eq1 == pytest.approx(simple, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            tcp_response_rate(0, 0.1, 0.01, 0.4)
        with pytest.raises(ValueError):
            tcp_response_rate(1000, 0, 0.01, 0.4)
        with pytest.raises(ValueError):
            tcp_response_rate(1000, 0.1, 1.5, 0.4)
        with pytest.raises(ValueError):
            tcp_response_rate(1000, 0.1, 0.01, 0)

    @pytest.mark.parametrize("p", [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3])
    def test_packets_per_rtt_depend_on_p_alone_when_t_rto_is_4r(self, p):
        """With the paper's t_RTO = 4R heuristic, Equation (1) in packets
        per RTT is 1 / (sqrt(2p/3) + 12 sqrt(3p/8) p (1 + 32p^2)) for every
        RTT and packet size."""
        expected = 1 / (
            math.sqrt(2 * p / 3) + 12 * math.sqrt(3 * p / 8) * p * (1 + 32 * p * p)
        )
        for rtt in (0.01, 0.1, 1.0):
            for size in (500, 1500):
                rate = tcp_response_rate(size, rtt, p, 4 * rtt)
                assert rate * rtt / size == pytest.approx(expected, rel=1e-12)

    @given(
        p=st.floats(min_value=1e-6, max_value=1.0),
        rtt=st.floats(min_value=1e-3, max_value=2.0),
    )
    @settings(max_examples=100)
    def test_always_positive_and_finite(self, p, rtt):
        rate = tcp_response_rate(1000, rtt, p, 4 * rtt)
        assert rate > 0 and math.isfinite(rate)


class TestSimpleResponseRate:
    def test_formula(self):
        assert simple_response_rate(1000, 0.1, 0.01) == pytest.approx(
            1000 * math.sqrt(1.5) / (0.1 * 0.1)
        )

    def test_packets_per_rtt_is_1_2_over_sqrt_p(self):
        p = 0.01
        rate = simple_response_rate(1000, 0.1, p)
        pkts_per_rtt = rate * 0.1 / 1000
        assert pkts_per_rtt == pytest.approx(math.sqrt(1.5) / math.sqrt(p), rel=1e-9)


class TestInversion:
    @given(p=st.floats(min_value=1e-6, max_value=0.9))
    @settings(max_examples=100)
    def test_round_trip(self, p):
        rate = tcp_response_rate(1000, 0.1, p, 0.4)
        recovered = invert_response(1000, 0.1, rate, 0.4)
        assert recovered == pytest.approx(p, rel=1e-5)

    def test_very_high_rate_maps_to_floor(self):
        assert invert_response(1000, 0.1, 1e15, 0.4) == pytest.approx(1e-8)

    def test_very_low_rate_maps_to_one(self):
        assert invert_response(1000, 0.1, 1e-6, 0.4) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            invert_response(1000, 0.1, 0, 0.4)


class TestAnalyticIncrease:
    def test_paper_values(self):
        # Appendix A.1: w=1/6 gives ~0.12 for A >= 1.
        assert analytic_rate_increase(100.0, 1.0 / 6.0) == pytest.approx(0.12, abs=0.01)
        # With maximum history discounting, w=0.4 gives ~0.28.
        assert analytic_rate_increase(100.0, 0.4) == pytest.approx(0.28, abs=0.015)

    @pytest.mark.parametrize("w, bound", [
        (1 / 6, DELTA_T_SIMPLE_BOUND),  # no discounting
        (0.25, 0.18),
        (0.4, 0.288),  # maximum discounting; the paper rounds to 0.28
        (1.0, 0.72),
    ])
    def test_increase_rises_toward_0_72_w(self, w, bound):
        """Appendix A.1: 1.2 (sqrt(A + 1.2 w sqrt(A)) - sqrt(A)) grows with
        A and tends to 0.72 w from below, which is where the paper's
        0.12 packets/RTT for w = 1/6 comes from."""
        assert 0.72 * w == pytest.approx(bound)
        grid = [1.0, 10.0, 100.0, 1e4, 1e6, 1e8]
        deltas = [analytic_rate_increase(a, w) for a in grid]
        assert deltas == sorted(deltas)
        assert all(delta < 0.72 * w for delta in deltas)
        assert deltas[-1] == pytest.approx(0.72 * w, rel=1e-3)

    def test_w_of_one_below_one_packet(self):
        """Even weighting only the newest interval, increase < 1 pkt/RTT."""
        for a in (1, 10, 100, 10_000):
            assert analytic_rate_increase(float(a), 1.0) < 1.0

    @given(
        a=st.floats(min_value=1.0, max_value=1e6),
        w=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_monotone_in_weight_and_bounded(self, a, w):
        delta = analytic_rate_increase(a, w)
        assert 0.0 <= delta < 1.0
        assert delta <= analytic_rate_increase(a, 1.0) + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            analytic_rate_increase(0, 0.5)
        with pytest.raises(ValueError):
            analytic_rate_increase(10, 1.5)
