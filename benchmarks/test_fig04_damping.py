"""Figure 4 bench: oscillations prevented by the sqrt-RTT interpacket
spacing adjustment (section 3.4).

The headline assertion: at small-to-moderate buffers the adjusted flow's
send-rate CoV is lower than the unadjusted flow's from the Figure 3 bench.
"""

from repro.experiments.runner import FIGURES

FIGURE = FIGURES["fig03"]
BUFFERS = FIGURE.full["buffer_sizes"]


def test_fig04_oscillation_damped(once, benchmark, cache_dir):
    plain, damped = once(
        benchmark, FIGURE.entry(), **FIGURE.full, cache_dir=cache_dir
    )
    improved = sum(
        damped.cov_by_buffer[b] <= plain.cov_by_buffer[b] + 0.01 for b in BUFFERS
    )
    # The adjustment must help (or at least not hurt) at most buffer sizes.
    assert improved >= 3
    # And throughput is not sacrificed.
    for b in BUFFERS:
        assert damped.mean_rate_by_buffer[b] > 0.5 * plain.mean_rate_by_buffer[b]
    print("\nFigure 4 reproduction (CoV without -> with adjustment):")
    for b in BUFFERS:
        print(
            f"  buffer {b:3d}: {plain.cov_by_buffer[b]:.3f} -> "
            f"{damped.cov_by_buffer[b]:.3f}"
        )
