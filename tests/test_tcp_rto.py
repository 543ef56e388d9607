"""Unit tests for the RTO estimator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.tcp.rto import RTOEstimator


class TestRTOEstimator:
    def test_initial_rto(self):
        est = RTOEstimator(granularity=0.0, min_rto=0.2)
        assert est.rto == RTOEstimator.INITIAL_RTO == 3.0

    def test_first_sample_sets_srtt_and_var(self):
        est = RTOEstimator(granularity=0.0, min_rto=0.01)
        est.sample(0.1)
        assert est.srtt == pytest.approx(0.1)
        assert est.rttvar == pytest.approx(0.05)
        assert est.rto == pytest.approx(0.1 + 4 * 0.05)

    def test_smoothing_converges_to_constant_rtt(self):
        est = RTOEstimator(granularity=0.0, min_rto=0.01)
        for _ in range(200):
            est.sample(0.2)
        assert est.srtt == pytest.approx(0.2, rel=1e-3)
        assert est.rttvar < 0.01

    def test_granularity_rounds_up(self):
        est = RTOEstimator(granularity=0.5, min_rto=0.1)
        est.sample(0.3)
        assert est.rto % 0.5 == pytest.approx(0.0)
        assert est.rto >= 0.3

    def test_min_rto_floor(self):
        est = RTOEstimator(granularity=0.0, min_rto=1.0)
        for _ in range(100):
            est.sample(0.01)
        assert est.rto == 1.0

    def test_backoff_doubles(self):
        est = RTOEstimator(granularity=0.0, min_rto=0.1)
        est.sample(0.5)
        base = est.rto
        est.backoff()
        assert est.rto == pytest.approx(2 * base)
        est.backoff()
        assert est.rto == pytest.approx(4 * base)

    def test_backoff_capped_at_max(self):
        est = RTOEstimator(granularity=0.0, min_rto=0.1)
        est.sample(10.0)
        for _ in range(20):
            est.backoff()
        assert est.rto == RTOEstimator.MAX_RTO

    def test_sample_clears_backoff(self):
        est = RTOEstimator(granularity=0.0, min_rto=0.1)
        est.sample(0.5)
        base = est.rto
        est.backoff()
        est.sample(0.5)
        assert est.rto == pytest.approx(base, rel=0.2)

    def test_aggressive_settings_yield_small_rto(self):
        """The 'Solaris' configuration: tiny floor, weak variance margin."""
        aggressive = RTOEstimator(granularity=0.01, min_rto=0.05, k=1.0)
        conservative = RTOEstimator(granularity=0.5, min_rto=1.0, k=4.0)
        for _ in range(50):
            aggressive.sample(0.1)
            conservative.sample(0.1)
        assert aggressive.rto < conservative.rto

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RTOEstimator(granularity=-1)
        with pytest.raises(ValueError):
            RTOEstimator(min_rto=0)
        with pytest.raises(ValueError):
            RTOEstimator().sample(0)

    @given(st.lists(st.floats(min_value=1e-4, max_value=5.0), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_rto_always_within_bounds(self, rtts):
        est = RTOEstimator(granularity=0.1, min_rto=0.2)
        for rtt in rtts:
            est.sample(rtt)
            assert 0.2 <= est.rto <= RTOEstimator.MAX_RTO

    @given(st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=50)
    def test_rto_at_least_srtt(self, rtt):
        est = RTOEstimator(granularity=0.0, min_rto=1e-4)
        est.sample(rtt)
        assert est.rto >= est.srtt
