"""Figure 9 bench: equivalence ratio vs measurement timescale.

The ``--quick`` row of the paper's 14-run steady-state scenario.  Asserts the
paper's band: TFRC/TCP equivalence between ~0.5 and 1.0 over the swept
timescales, with TFRC/TFRC pairs at least as equivalent as TCP/TCP pairs on
short timescales.
"""

from repro.experiments.runner import FIGURES

FIGURE = FIGURES["fig09"]


def test_fig09_equivalence(once, benchmark, cache_dir):
    result = once(
        benchmark, FIGURE.entry(), **FIGURE.quick, cache_dir=cache_dir
    )
    print("\nFigure 9 reproduction (equivalence ratio by timescale):")
    print("  tau    TFRC/TFRC  TCP/TCP  TFRC/TCP")
    for tau in result.timescales:
        ee = result.equivalence_tfrc_tfrc[tau][0]
        cc = result.equivalence_tcp_tcp[tau][0]
        ec = result.equivalence_tfrc_tcp[tau][0]
        print(f"  {tau:5.1f}  {ee:9.2f}  {cc:7.2f}  {ec:8.2f}")
    for tau in result.timescales:
        ec = result.equivalence_tfrc_tcp[tau][0]
        # Paper: cross-protocol equivalence 0.6-0.8 over a broad range; we
        # accept a slightly wider band for the reduced run count.
        assert 0.45 <= ec <= 1.0, (tau, ec)
    # TFRC flows are equivalent to each other on a broader range of
    # timescales than TCP flows (paper's observation) -- check the shortest.
    shortest = result.timescales[0]
    assert (
        result.equivalence_tfrc_tfrc[shortest][0]
        >= result.equivalence_tcp_tcp[shortest][0] - 0.05
    )
