"""Figure 10 bench: coefficient of variation vs timescale.

Same scenario as the Figure 9 bench; asserts the paper's claim that TFRC's
send rate is smoother than TCP's "across almost any timescale that might be
important to an application".  It shares the session's result cache with
the Figure 9 bench, so after that bench its ``benchmark`` timing reads a
warm (all cache hits) run, not a simulation.
"""

from repro.experiments.runner import FIGURES

FIGURE = FIGURES["fig09"]


def test_fig10_cov(once, benchmark, cache_dir):
    result = once(
        benchmark, FIGURE.entry(), **FIGURE.quick, cache_dir=cache_dir
    )
    print("\nFigure 10 reproduction (CoV by timescale):")
    print("  tau    CoV(TCP)  CoV(TFRC)")
    for tau in result.timescales:
        print(
            f"  {tau:5.1f}  {result.cov_tcp[tau][0]:8.2f}  "
            f"{result.cov_tfrc[tau][0]:9.2f}"
        )
    smoother = sum(
        result.cov_tfrc[tau][0] < result.cov_tcp[tau][0]
        for tau in result.timescales
    )
    assert smoother == len(result.timescales)
    # CoV decreases with timescale for both protocols (aggregation smooths).
    taus = result.timescales
    assert result.cov_tcp[taus[-1]][0] < result.cov_tcp[taus[0]][0]
    assert result.cov_tfrc[taus[-1]][0] < result.cov_tfrc[taus[0]][0]
