"""Tests for the self-similarity diagnostics and the ON/OFF aggregate.

The key substrate check: the Pareto ON/OFF fleet really produces
self-similar aggregate traffic (H approx (3 - alpha)/2), because the
paper's section 4.1.3 scenario depends on that property.
"""

import numpy as np
import pytest

from repro.analysis.selfsimilarity import (
    aggregate_series,
    expected_hurst_for_pareto,
    hurst_variance_time,
    variance_time_points,
)
from repro.net.monitor import FlowMonitor
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.traffic.onoff import OnOffSource


def aggregate_rate(monitor, t0, t1, tau):
    """The summed Eq. (2) rate series of every flow ``monitor`` saw."""
    return sum(monitor.rate_series(fid, t0, t1, tau) for fid in monitor.flows())


class CollectingSink:
    def __init__(self):
        self.monitor = FlowMonitor()

    def send(self, packet):
        self.monitor.on_packet(packet.sent_at, packet)
        return True

    def connect(self, receiver):
        pass


class TestAggregation:
    def test_block_means(self):
        assert aggregate_series([1, 2, 3, 4], 2).tolist() == [1.5, 3.5]

    def test_truncates_partial_block(self):
        assert aggregate_series([1, 2, 3, 4, 5], 2).tolist() == [1.5, 3.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            aggregate_series([1, 2], 0)
        with pytest.raises(ValueError):
            aggregate_series([1], 2)

    def test_variance_points_decreasing_for_iid(self):
        rng = np.random.default_rng(0)
        series = rng.normal(0, 1, 4096)
        points = variance_time_points(series, [1, 4, 16, 64])
        variances = [v for _, v in points]
        assert variances == sorted(variances, reverse=True)


class TestHurstEstimator:
    def test_iid_noise_is_half(self):
        rng = np.random.default_rng(1)
        series = rng.normal(10, 1, 16384)
        assert hurst_variance_time(series) == pytest.approx(0.5, abs=0.1)

    def test_persistent_process_above_half(self):
        """A random walk's increments integrated -> strongly persistent."""
        rng = np.random.default_rng(2)
        # Fractional-Gaussian-ish surrogate: cumulative sum has H ~ 1.
        walk = np.cumsum(rng.normal(0, 1, 16384))
        assert hurst_variance_time(walk) > 0.8

    def test_expected_hurst_formula(self):
        assert expected_hurst_for_pareto(1.5) == pytest.approx(0.75)
        with pytest.raises(ValueError):
            expected_hurst_for_pareto(2.5)


class TestOnOffAggregateIsSelfSimilar:
    def test_hurst_of_onoff_fleet(self):
        """The substrate check: superposed Pareto ON/OFF sources at alpha=1.5
        must show H well above 0.5 (theory: 0.75), unlike Poisson traffic."""
        sim = Simulator()
        sink = CollectingSink()
        rng = np.random.default_rng(7)
        sources = [
            OnOffSource(sim, f"o{i}", sink, rng=rng, peak_rate_bps=500e3)
            for i in range(20)
        ]
        for source in sources:
            source.start(at=float(rng.uniform(0, 5)))
        sim.run(until=600.0)
        series = aggregate_rate(sink.monitor, 50.0, 600.0, 0.1)
        hurst = hurst_variance_time(series, levels=(1, 2, 4, 8, 16, 32, 64, 128))
        assert hurst > 0.6  # clearly long-range dependent

    def test_poisson_control_is_not(self):
        """Control experiment: Poisson arrivals at the same mean rate."""
        rng = np.random.default_rng(8)
        t, monitor = 0.0, FlowMonitor()
        while t < 600.0:
            t += rng.exponential(1.0 / 400.0)
            monitor.on_packet(t, Packet("poisson", 0, 1000))
        series = aggregate_rate(monitor, 50.0, 600.0, 0.1)
        hurst = hurst_variance_time(series, levels=(1, 2, 4, 8, 16, 32, 64, 128))
        assert hurst < 0.65
