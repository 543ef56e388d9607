"""Figure 17 bench: CoV of TFRC and TCP over the five named paths.

Paper's observation: TFRC is smoother than TCP on every path; the Solaris
TCP trace is abnormally variable (its defect shows in the CoV plot) while
the corresponding TFRC trace is normal.  It shares the session's result
cache with the Figure 16 bench, so after that bench its ``benchmark``
timing reads a warm (all cache hits) run, not a simulation.
"""

import numpy as np

from repro.experiments.runner import FIGURES

FIGURE = FIGURES["fig16"]


def test_fig17_internet_cov(once, benchmark, cache_dir):
    results = once(
        benchmark, FIGURE.entry(), **FIGURE.quick, cache_dir=cache_dir
    )
    print("\nFigure 17 reproduction (CoV at the shortest timescale):")
    smoother = 0
    for name, result in results.items():
        tau = sorted(result.cov_tfrc_by_tau)[0]
        cov_tfrc = result.cov_tfrc_by_tau[tau]
        cov_tcp = result.cov_tcp_by_tau[tau]
        print(f"  {name:14s} TFRC {cov_tfrc:.2f}  TCP {cov_tcp:.2f}")
        if cov_tfrc < cov_tcp:
            smoother += 1
    # TFRC smoother on (almost) every path.
    assert smoother >= len(results) - 1
