"""Figure 13 bench: CoV of TFRC and TCP with ON/OFF background traffic.

Paper's shape: TFRC's send rate is much smoother than TCP's, especially at
high loss; CoV values are much higher than in the steady-state scenario
(Figure 10) because of the variable background.
"""

from repro.experiments.runner import FIGURES

FIGURE = FIGURES["fig11"]


def test_fig13_onoff_cov(once, benchmark):
    result = once(benchmark, FIGURE.entry(), **FIGURE.quick).runs[-1]
    print(f"\nFigure 13 reproduction (CoV by timescale, {result.sources} ON/OFF sources):")
    print("  tau     CoV(TFRC)  CoV(TCP)")
    for tau in sorted(result.cov_tfrc_by_tau):
        print(
            f"  {tau:5.1f}  {result.cov_tfrc_by_tau[tau]:9.2f}  "
            f"{result.cov_tcp_by_tau[tau]:8.2f}"
        )
    # TFRC is smoother at short timescales; at long timescales the two
    # converge (and can cross: TFRC's slow recovery adds long-horizon
    # variability), which matches the shape of the paper's Figure 13.
    short_taus = [t for t in result.cov_tfrc_by_tau if t <= 1.0]
    assert short_taus
    for t in short_taus:
        assert result.cov_tfrc_by_tau[t] < result.cov_tcp_by_tau[t]
