"""Tests for the Gilbert-Elliott loss model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.lossmodels import GilbertElliottLoss, gilbert_elliott_from_rate
from repro.net.packet import Packet, PacketType


def data_packet(seq=0):
    return Packet(flow_id="f", seq=seq, size=1000)


def ack_packet():
    return Packet(flow_id="f", seq=0, size=40, ptype=PacketType.ACK)


def run_model(model, n, start_seq=0):
    return [model(data_packet(start_seq + i), i * 0.01) for i in range(n)]


def drop_runs(drops):
    """Lengths of the runs of consecutive drops."""
    runs, current = [], 0
    for dropped in [*drops, False]:
        if dropped:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    return runs


class TestGilbertElliott:
    def test_parameter_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            GilbertElliottLoss(1.5, 0.5, 0, 1, rng)
        with pytest.raises(ValueError):
            GilbertElliottLoss(0.0, 0.0, 0, 1, rng)

    def test_stationary_probability(self):
        model = GilbertElliottLoss(0.02, 0.18, 0.0, 1.0,
                                   np.random.default_rng(0))
        assert model.stationary_bad_probability == pytest.approx(0.1)
        assert model.stationary_loss_rate == pytest.approx(0.1)
        assert model.mean_burst_length == pytest.approx(1 / 0.18)

    def test_long_run_loss_rate_matches_stationary(self):
        model = GilbertElliottLoss(0.05, 0.45, 0.0, 1.0,
                                   np.random.default_rng(42))
        drops = run_model(model, 60000)
        measured = sum(drops) / len(drops)
        assert measured == pytest.approx(model.stationary_loss_rate, rel=0.15)

    def test_burstier_than_bernoulli(self):
        """Same long-run rate, but drops arrive in runs."""
        rng = np.random.default_rng(7)
        bursty = gilbert_elliott_from_rate(0.05, mean_burst_length=5, rng=rng)
        drops = run_model(bursty, 50000)
        runs = drop_runs(drops)
        assert np.mean(runs) > 2.5  # Bernoulli at 5% would give ~1.05

    def test_non_data_packets_pass(self):
        model = GilbertElliottLoss(1.0, 0.0, 1.0, 1.0,
                                   np.random.default_rng(0))
        assert model(ack_packet(), 0.0) is False

    def test_from_rate_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gilbert_elliott_from_rate(0.0, 3, rng)
        with pytest.raises(ValueError):
            gilbert_elliott_from_rate(0.5, 3, rng, loss_bad=0.4)
        with pytest.raises(ValueError):
            gilbert_elliott_from_rate(0.1, 0.5, rng)

    @settings(max_examples=20, deadline=None)
    @given(rate=st.floats(min_value=0.01, max_value=0.3),
           burst=st.floats(min_value=1.0, max_value=10.0))
    def test_from_rate_stationary_property(self, rate, burst):
        model = gilbert_elliott_from_rate(rate, burst,
                                          np.random.default_rng(0))
        assert model.stationary_loss_rate == pytest.approx(rate)
        assert model.mean_burst_length == pytest.approx(burst)
