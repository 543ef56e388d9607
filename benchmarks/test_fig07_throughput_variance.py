"""Figure 7 bench: per-flow normalized throughput scatter at 15 Mb/s RED.

The paper's Figure 7 shows each flow of the 15 Mb/s column as a point:
means close to fair, TCP flows with visibly higher variance than TFRC
flows.
"""

import numpy as np

from repro.analysis.stats import jain_fairness_index
from repro.experiments import fig06_fairness_grid as fig06


# Figure 7's claim is about the 15 Mb/s RED column over two seeds, a cell
# no ``tfrc-experiment fig06`` row runs.
def run_cells():
    """Two replicated 15 Mb/s cells ("typically" in the paper is a tendency
    across runs, so a single seed is too noisy to assert on)."""
    return [
        fig06.run(
            link_rates_mbps=(15,), flow_counts=(32,), queue_types=("red",),
            duration=80.0, seed=seed,
        ).cells[0]
        for seed in (0, 1)
    ]


def test_fig07_per_flow_variance(once, benchmark):
    cells = once(benchmark, run_cells)
    tcp = np.concatenate([cell.per_flow_tcp for cell in cells])
    tfrc = np.concatenate([cell.per_flow_tfrc for cell in cells])
    # Means near fair share.
    assert 0.5 < tcp.mean() < 1.5
    assert 0.5 < tfrc.mean() < 1.5
    # Paper: "Typically, the TCP flows have higher variance than the TFRC
    # flows" -- and replacing all flows with TCP "doesn't change [the
    # variance] greatly", so we assert a tendency, not a strict ordering.
    assert tcp.std() > tfrc.std() * 0.6
    # No flow is starved outright.
    assert tcp.min() > 0.05 and tfrc.min() > 0.05
    # Single-number summary: Jain's index across all flows of each type,
    # and across everything together (fairness of the whole allocation).
    jain_tcp = jain_fairness_index(tcp)
    jain_tfrc = jain_fairness_index(tfrc)
    jain_all = jain_fairness_index(np.concatenate([tcp, tfrc]))
    assert jain_all > 0.6  # the whole allocation is broadly fair
    assert jain_tfrc >= jain_tcp - 0.05  # TFRC at least as even as TCP
    print("\nFigure 7 reproduction (15 Mb/s, 32 flows, RED, 2 seeds):")
    print(f"  TCP : mean {tcp.mean():.2f} std {tcp.std():.2f} range [{tcp.min():.2f}, {tcp.max():.2f}]")
    print(f"  TFRC: mean {tfrc.mean():.2f} std {tfrc.std():.2f} range [{tfrc.min():.2f}, {tfrc.max():.2f}]")
    print(f"  Jain fairness: TCP {jain_tcp:.3f}, TFRC {jain_tfrc:.3f}, "
          f"all flows {jain_all:.3f}")
