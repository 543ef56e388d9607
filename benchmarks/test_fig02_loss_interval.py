"""Figure 2 bench: ALI estimator under idealized periodic loss.

Regenerates the three panels' series (current/estimated interval, loss event
rate, transmission rate) and checks the paper's claims: stable estimate
under constant loss, fast reduction at the 10% step, smooth recovery.
"""

import numpy as np

from repro.experiments import fig02_loss_interval as fig02
from repro.experiments.runner import FIGURES

FIGURE = FIGURES["fig02"]


def test_fig02_loss_interval(once, benchmark):
    result = once(benchmark, FIGURE.entry(), **FIGURE.full)

    summary = fig02.summarize(result)
    # Paper: constant 1% loss -> completely stable interval estimate (~100).
    assert 60 < summary["stable_interval_mean"] < 160
    assert summary["stable_interval_spread"] < 0.35 * summary["stable_interval_mean"]
    # Paper: p tracks the 10% phase.
    assert 0.04 < summary["p_during_10pct"] < 0.2
    # Paper: the transmission rate is rapidly reduced when loss jumps.
    assert summary["rate_drop_factor"] > 2.0

    # Recovery after t=9 is smooth: no step increases.
    rates = [
        r for t, r in zip(result.times, result.tx_rate_bytes) if 10.0 <= t <= 16.0
    ]
    jumps = [(b - a) / a for a, b in zip(rates, rates[1:]) if a > 0]
    assert max(jumps) < 0.25

    print("\nFigure 2 reproduction:")
    print(f"  stable estimated interval : {summary['stable_interval_mean']:.1f} pkts (paper: ~100)")
    print(f"  p during 10% phase        : {summary['p_during_10pct']:.3f} (paper: ~0.1)")
    print(f"  rate drop factor at step  : {summary['rate_drop_factor']:.1f}x")
