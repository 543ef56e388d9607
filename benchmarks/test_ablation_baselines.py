"""Section 5 comparison: TFRC vs TFRCP on a congestion step.

The paper compares TFRC against TFRCP "over a wide range of timescales" and
finds TFRC better.  This bench quantifies the transient behaviour of the
two protocols on the same step-congestion path, on each of ``SEEDS`` (the
loss draws):

* reaction time to a 10x congestion increase,
* smoothness (CoV of the allowed rate) in the steady phases.

Seed 7 is the one the claims were written against; 8 and 9 were picked
before their first run, not to make the claims pass.
"""

import numpy as np

from repro.baselines.tfrcp import TfrcpFlow
from repro.core import TfrcFlow
from repro.net.monitor import FlowMonitor
from repro.net.path import LossyPath, bernoulli_loss, scheduled_loss
from repro.sim import Simulator


def run_protocol(flow_cls, seed, duration=120.0, rtt=0.1):
    rng = np.random.default_rng(seed)
    model = scheduled_loss(
        [(0.0, bernoulli_loss(0.005, rng)), (60.0, bernoulli_loss(0.05, rng))]
    )
    sim = Simulator()
    forward = LossyPath(sim, delay=rtt / 2, loss_model=model)
    reverse = LossyPath(sim, delay=rtt / 2)
    monitor = FlowMonitor()
    flow = flow_cls(sim, "x", forward, reverse, on_data=monitor.on_packet)
    flow.start()
    sim.run(until=duration)
    return flow, monitor


def reaction_time(rates, onset=60.0):
    pre = [r for t, r in rates if onset - 10 <= t < onset]
    if not pre:
        return float("nan")
    threshold = np.mean(pre) / 2
    for t, r in rates:
        if t >= onset and r <= threshold:
            return t - onset
    return float("inf")


def smoothness(rates, t0, t1):
    window = [r for t, r in rates if t0 <= t <= t1]
    if not window:
        return float("nan")
    return float(np.std(window) / np.mean(window))


SEEDS = (7, 8, 9)
PROTOCOLS = (("tfrc", TfrcFlow), ("tfrcp", TfrcpFlow))
METRICS = ("reaction", "smooth_calm", "throughput_congested")


def run_comparison():
    """seed -> protocol -> metric."""
    out = {}
    for seed in SEEDS:
        out[seed] = {}
        for name, cls in PROTOCOLS:
            flow, monitor = run_protocol(cls, seed)
            rates = flow.sender.rate_history
            out[seed][name] = {
                "reaction": reaction_time(rates),
                "smooth_calm": smoothness(rates, 30, 60),
                "throughput_congested": monitor.throughput_bps("x", 80, 120),
            }
    return out


def summary(label, row):
    return f"  {label:8s}" + "  |".join(
        f"  {name:6s} reaction {row[name]['reaction']:6.2f}s  "
        f"calm CoV {row[name]['smooth_calm']:.3f}  "
        f"congested {row[name]['throughput_congested'] / 1e3:.0f} kb/s"
        for name, _ in PROTOCOLS
    )


def test_baseline_comparison(once, benchmark):
    results = once(benchmark, run_comparison)
    print("\nSection 5 baseline comparison (0.5% -> 5% loss step at t=60):")
    for seed, row in results.items():
        print(summary(f"seed {seed}", row))
    median = {
        name: {
            metric: float(np.median([results[s][name][metric] for s in SEEDS]))
            for metric in METRICS
        }
        for name, _ in PROTOCOLS
    }
    print(summary("median", median))
    for seed, row in results.items():
        tfrc, tfrcp = row["tfrc"], row["tfrcp"]
        # TFRC reacts within a few seconds (several RTTs of 0.1 s + estimator
        # lag).
        assert tfrc["reaction"] < 5.0, seed
        # TFRCP cannot react faster than its 5 s update interval.
        assert tfrcp["reaction"] >= 3.0, seed
        # TFRC's transient response beats TFRCP's (the paper's conclusion).
        assert tfrc["reaction"] < tfrcp["reaction"], seed
        # Both throttle: congested throughput well below the calm fair rate.
        assert tfrc["throughput_congested"] < 3e6, seed
        assert tfrcp["throughput_congested"] < 3e6, seed
