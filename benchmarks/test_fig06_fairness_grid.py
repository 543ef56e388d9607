"""Figure 6 bench: normalized TCP throughput when competing with TFRC.

The ``--quick`` row of the paper's (link rate x flow count x queue type)
grid.  Asserts the headline claims: both protocols within a fair band,
network utilization above 90% for the RED/DropTail aggregate cases.
"""

from repro.experiments.runner import FIGURES

FIGURE = FIGURES["fig06"]


def test_fig06_fairness_grid(once, benchmark):
    result = once(benchmark, FIGURE.entry(), **FIGURE.quick)
    print("\nFigure 6 reproduction (mean normalized throughput):")
    for cell in result.cells:
        print(
            f"  {cell.queue_type:9s} {cell.link_bps / 1e6:4.0f}Mb/s "
            f"{cell.total_flows:3d} flows: TCP {cell.mean_tcp_normalized:.2f} "
            f"TFRC {cell.mean_tfrc_normalized:.2f} util {cell.utilization:.2f}"
        )
    for cell in result.cells:
        # Fairness band: neither protocol starved nor hogging (paper: TCP
        # throughput "similar to what it would be if the competing traffic
        # was TCP"; worst cases stay within ~2x).
        assert 0.4 < cell.mean_tcp_normalized < 1.7, cell
        assert 0.4 < cell.mean_tfrc_normalized < 1.7, cell
        # Paper: utilization always > 90% (we allow a little slack for the
        # shorter runs).
        assert cell.utilization > 0.8, cell
