"""Figure 3 bench: TFRC oscillations over a Dummynet pipe, no damping.

Sweeps the DropTail buffer and reports the steady-state send-rate CoV; the
companion Figure 4 bench shows the same sweep with the interpacket-spacing
adjustment enabled.  Both run the full-scale ``tfrc-experiment fig03``
row, which runs both sweeps, so they share their cells through the
session's result cache.
"""

from repro.experiments.runner import FIGURES

FIGURE = FIGURES["fig03"]
BUFFERS = FIGURE.full["buffer_sizes"]


def test_fig03_oscillation_without_adjustment(once, benchmark, cache_dir):
    result, _ = once(
        benchmark, FIGURE.entry(), **FIGURE.full, cache_dir=cache_dir
    )
    # The flow must achieve sane throughput at every buffer size...
    for buffer_packets in BUFFERS:
        assert result.mean_rate_by_buffer[buffer_packets] > 50.0  # KB/s
    # ...and its rate visibly fluctuates (this is the motivation figure).
    assert max(result.cov_by_buffer.values()) > 0.02
    print("\nFigure 3 reproduction (send-rate CoV, no damping):")
    for buffer_packets in BUFFERS:
        print(
            f"  buffer {buffer_packets:3d} pkts: CoV {result.cov_by_buffer[buffer_packets]:.3f} "
            f"mean {result.mean_rate_by_buffer[buffer_packets]:.0f} KB/s"
        )
