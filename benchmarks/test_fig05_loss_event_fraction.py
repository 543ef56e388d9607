"""Figure 5 bench: loss-event fraction vs Bernoulli loss probability.

Regenerates the three curves (flows at 0.5x / 1x / 2x the equation rate)
and checks the section 3.5.1 claims: p_event <= p_loss everywhere, small
difference at low and high loss, moderate (~10%) difference in between for
the 1x flow.
"""

import numpy as np

from repro.experiments.runner import FIGURES

FIGURE = FIGURES["fig05"]


def test_fig05_loss_event_fraction(once, benchmark):
    result = once(benchmark, FIGURE.entry(), **FIGURE.full)
    for multiplier, curve in result.p_event_by_multiplier.items():
        for p_loss, p_event in zip(result.p_loss_values, curve):
            assert 0.0 <= p_event <= p_loss + 1e-12
    # 1x flow: the gap stays moderate (paper: at most ~10%).
    assert result.max_relative_gap(1.0) < 0.15
    # Faster flows coalesce more (larger gap), slower flows less.
    assert result.max_relative_gap(2.0) >= result.max_relative_gap(1.0)
    assert result.max_relative_gap(1.0) >= result.max_relative_gap(0.5)
    # Monte-Carlo agrees with the analytic curves.
    for multiplier in (1.0,):
        analytic = np.array(result.p_event_by_multiplier[multiplier])
        simulated = np.array(result.p_event_monte_carlo[multiplier])
        mask = analytic > 1e-4
        rel = np.abs(simulated[mask] - analytic[mask]) / analytic[mask]
        assert np.median(rel) < 0.2

    print("\nFigure 5 reproduction (max relative p_loss vs p_event gap):")
    for multiplier in sorted(result.p_event_by_multiplier):
        print(f"  rate x{multiplier}: {result.max_relative_gap(multiplier) * 100:.1f}%")
