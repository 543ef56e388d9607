"""Integration tests: full mixed-traffic dumbbell simulations (short runs).

These assert the qualitative claims of the paper's evaluation at reduced
scale so they stay fast enough for CI.
"""

import numpy as np
import pytest

from repro.analysis.cov import coefficient_of_variation
from repro.scenarios import (
    build_mixed_dumbbell,
    run_mixed_dumbbell,
    run_single_tfrc_on_lossy_path,
    steady_state_window,
)
from repro.net.path import periodic_loss

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def mixed_run():
    """One shared 8+8 flow run on the paper's RED bottleneck."""
    return run_mixed_dumbbell(
        duration=40.0, n_tfrc=8, n_tcp=8, bandwidth_bps=15e6,
        queue_type="red", seed=3,
    )


class TestFairness:
    def test_tcp_gets_reasonable_share(self, mixed_run):
        t0, t1 = steady_state_window(40.0, 0.5)
        tcp = np.mean(
            [mixed_run.normalized_throughput(f, t0, t1) for f in mixed_run.tcp_ids]
        )
        assert 0.5 < tcp < 1.6

    def test_tfrc_gets_reasonable_share(self, mixed_run):
        t0, t1 = steady_state_window(40.0, 0.5)
        tfrc = np.mean(
            [mixed_run.normalized_throughput(f, t0, t1) for f in mixed_run.tfrc_ids]
        )
        assert 0.5 < tfrc < 1.6

    def test_high_utilization(self, mixed_run):
        t0, t1 = steady_state_window(40.0, 0.5)
        total = sum(
            mixed_run.flow_monitor.throughput_bps(f, t0, t1)
            for f in mixed_run.tcp_ids + mixed_run.tfrc_ids
        )
        assert total / 15e6 > 0.80

    def test_every_flow_makes_progress(self, mixed_run):
        t0, t1 = steady_state_window(40.0, 0.5)
        for fid in mixed_run.tcp_ids + mixed_run.tfrc_ids:
            assert mixed_run.flow_monitor.throughput_bps(fid, t0, t1) > 0

    def test_loss_rate_moderate(self, mixed_run):
        assert 0.001 < mixed_run.link_monitor.loss_rate() < 0.15


class TestSmoothness:
    def test_tfrc_smoother_than_tcp(self, mixed_run):
        """The paper's headline: TFRC's rate varies less at sub-second
        timescales."""
        t0, t1 = steady_state_window(40.0, 0.5)
        tau = 0.5

        def mean_cov(ids):
            covs = []
            for fid in ids:
                series = mixed_run.flow_monitor.rate_series(fid, t0, t1, tau)
                covs.append(coefficient_of_variation(series))
            return np.mean(covs)

        assert mean_cov(mixed_run.tfrc_ids) < mean_cov(mixed_run.tcp_ids)


class TestScenarioBuilder:
    def test_flow_counts(self):
        result = build_mixed_dumbbell(n_tfrc=3, n_tcp=2, seed=0)
        assert len(result.tfrc_flows) == 3
        assert len(result.tcp_flows) == 2
        assert len(result.dumbbell._forward_ports) == 5

    def test_zero_flows_rejected(self):
        with pytest.raises(ValueError):
            build_mixed_dumbbell(n_tfrc=0, n_tcp=0)

    def test_queue_scaling_with_bandwidth(self):
        small = build_mixed_dumbbell(n_tfrc=1, n_tcp=1, bandwidth_bps=1e6)
        large = build_mixed_dumbbell(n_tfrc=1, n_tcp=1, bandwidth_bps=64e6)
        assert (
            small.dumbbell.config.buffer_packets
            < large.dumbbell.config.buffer_packets
        )

    def test_seed_reproducibility(self):
        a = run_mixed_dumbbell(duration=10.0, n_tfrc=2, n_tcp=2, seed=5)
        b = run_mixed_dumbbell(duration=10.0, n_tfrc=2, n_tcp=2, seed=5)
        for fid in a.tcp_ids + a.tfrc_ids:
            assert a.flow_monitor.throughput_bps(fid, 5, 10) == (
                b.flow_monitor.throughput_bps(fid, 5, 10)
            )

    def test_different_seeds_differ(self):
        a = run_mixed_dumbbell(duration=10.0, n_tfrc=2, n_tcp=2, seed=5)
        b = run_mixed_dumbbell(duration=10.0, n_tfrc=2, n_tcp=2, seed=6)
        diffs = [
            a.flow_monitor.throughput_bps(fid, 5, 10)
            != b.flow_monitor.throughput_bps(fid, 5, 10)
            for fid in a.tcp_ids
        ]
        assert any(diffs)

    def test_steady_state_window(self):
        assert steady_state_window(100.0, 0.5) == (50.0, 100.0)
        with pytest.raises(ValueError):
            steady_state_window(0.0)


class TestSingleFlowHarness:
    def test_probe_invoked(self):
        times = []
        run_single_tfrc_on_lossy_path(
            loss_model=None, duration=1.0, probe=lambda sim, flow: times.append(sim.now),
            probe_interval=0.25,
        )
        assert len(times) == 4

    def test_loss_model_drives_estimator(self):
        result = run_single_tfrc_on_lossy_path(
            loss_model=periodic_loss(100), duration=20.0
        )
        assert result.flow.receiver.loss_event_rate() == pytest.approx(0.01, rel=0.5)
