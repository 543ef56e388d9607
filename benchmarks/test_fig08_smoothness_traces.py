"""Figure 8 bench: per-flow throughput traces at the 0.15 s timescale.

The paper's visual claim, quantified: at tau = 0.15 s (where bandwidth
variation starts to be noticeable to multimedia users) TFRC's traces are
much smoother than TCP's, on both RED and DropTail bottlenecks.
"""

from repro.experiments.runner import FIGURES

FIGURE = FIGURES["fig08"]


def test_fig08_smoothness(once, benchmark):
    results = once(benchmark, FIGURE.entry(), **FIGURE.full)
    red, droptail = results["red"], results["droptail"]
    print("\nFigure 8 reproduction (mean CoV of 0.15 s throughput):")
    for result in (red, droptail):
        print(
            f"  {result.queue_type:9s}: TCP {result.mean_cov_tcp:.2f}  "
            f"TFRC {result.mean_cov_tfrc:.2f}"
        )
    for result in (red, droptail):
        assert result.mean_cov_tfrc < result.mean_cov_tcp
        assert len(result.traces_tcp) == 4 and len(result.traces_tfrc) == 4
        # Every traced flow actually carried traffic.
        for series in list(result.traces_tcp.values()) + list(result.traces_tfrc.values()):
            assert sum(series) > 0
