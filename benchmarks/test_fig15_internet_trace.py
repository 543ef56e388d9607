"""Figure 15 bench: 3 TCP + 1 TFRC over the (synthetic) UCL Internet path.

Paper's observations for this experiment: the TFRC flow's rate is slightly
lower on average than the TCP flows', and much smoother (low variance on
one-second intervals).
"""

import numpy as np

from repro.analysis.cov import coefficient_of_variation
from repro.experiments.runner import FIGURES

FIGURE = FIGURES["fig15"]


def test_fig15_internet_trace(once, benchmark, cache_dir):
    result = once(
        benchmark, FIGURE.entry(), **FIGURE.quick, cache_dir=cache_dir
    )["ucl"]
    mean_tcp = float(np.mean(result.tcp_throughputs_bps))
    print("\nFigure 15 reproduction (synthetic UCL path):")
    print(f"  TFRC: {result.tfrc_throughput_bps / 1e3:6.0f} kb/s")
    print(f"  TCP : {mean_tcp / 1e3:6.0f} kb/s (mean of 3)")
    print(f"  loss rate: {result.loss_rate:.3f}")
    # Comparable shares: TFRC within [0.3x, 3x] of the TCP mean.
    assert 0.3 * mean_tcp < result.tfrc_throughput_bps < 3.0 * mean_tcp
    # The TFRC trace is smoother than the TCP traces at 1 s bins.
    tfrc_cov = coefficient_of_variation(result.tfrc_trace)
    tcp_covs = [coefficient_of_variation(trace) for trace in result.tcp_traces]
    assert tfrc_cov < float(np.mean(tcp_covs))
    # The loss rate is in the paper's Internet range (0.1% .. 5%-ish).
    assert 0.0005 < result.loss_rate < 0.12
