"""Integration: apps-layer analyses over real simulation traces.

Verifies the playout and adaptation analyses compose with the arrival
traces :class:`repro.net.monitor.FlowMonitor` records during actual
simulations (format compatibility plus sane end-to-end numbers).
"""

import numpy as np

from repro.apps import QualityAdapter, simulate_playout
from repro.scenarios import run_single_tfrc_on_lossy_path
from repro.net.path import periodic_loss


def run_flow(duration=40.0):
    result = run_single_tfrc_on_lossy_path(
        loss_model=periodic_loss(100), duration=duration, rtt=0.1,
    )
    return result.flow_monitor, duration


class TestPlayoutOverSimTrace:
    def test_playout_consumes_monitor_arrivals(self):
        monitor, duration = run_flow()
        steady = [(t, b) for t, b in monitor.arrival_series("tfrc") if t >= 10.0]
        bytes_delivered = sum(b for _, b in steady)
        mean_bps = bytes_delivered * 8 / (duration - 10.0)
        stats = simulate_playout(steady, media_rate_bps=0.5 * mean_bps,
                                 prebuffer_seconds=2.0, end_time=duration)
        # Media at half the delivered rate: plays cleanly.
        assert stats.startup_delay < 10.0
        assert stats.rebuffer_events == 0
        assert stats.played_seconds > 20.0

    def test_overprovisioned_media_rate_stalls(self):
        monitor, duration = run_flow()
        steady = [(t, b) for t, b in monitor.arrival_series("tfrc") if t >= 10.0]
        mean_bps = sum(b for _, b in steady) * 8 / (duration - 10.0)
        stats = simulate_playout(steady, media_rate_bps=3.0 * mean_bps,
                                 prebuffer_seconds=1.0, end_time=duration)
        # Asking for 3x the delivery cannot play smoothly.
        assert stats.rebuffer_events >= 1 or stats.startup_delay > 5.0


class TestAdaptationOverSimTrace:
    def test_adapter_consumes_rate_series(self):
        monitor, duration = run_flow()
        rates = monitor.rate_series("tfrc", 10.0, duration, 0.5)
        rates_bps = [8 * r for r in rates]
        result = QualityAdapter(up_stability=3.0).replay(rates_bps, tau=0.5)
        assert len(result.choices) == len(rates_bps)
        # The flow delivers ~100 KB/s+: some ladder level is sustained.
        assert max(result.choices) >= 0
        assert result.mean_bitrate_bps() <= float(np.mean(rates_bps))
