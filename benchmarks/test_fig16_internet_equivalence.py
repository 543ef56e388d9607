"""Figure 16 bench: TCP equivalence with TFRC over the five named paths.

Paper's observations: equivalence improves with timescale on every path;
the Linux sender gives good equivalence while the Solaris sender (broken
aggressive RTO) does more poorly -- a TCP defect, not a TFRC one.  Its
UCL cell is the Figure 15 bench's, replayed from the session's result
cache when that bench ran first.
"""

from repro.experiments.runner import FIGURES

FIGURE = FIGURES["fig16"]


def test_fig16_internet_equivalence(once, benchmark, cache_dir):
    results = once(
        benchmark, FIGURE.entry(), **FIGURE.quick, cache_dir=cache_dir
    )
    print("\nFigure 16 reproduction (equivalence by path):")
    for name, result in results.items():
        taus = sorted(result.equivalence_by_tau)
        series = " ".join(
            f"{tau:g}s={result.equivalence_by_tau[tau]:.2f}" for tau in taus
        )
        print(f"  {name:14s} {series}")
    for name, result in results.items():
        taus = sorted(result.equivalence_by_tau)
        # Equivalence at the longest timescale is meaningful on every path.
        assert result.equivalence_by_tau[taus[-1]] > 0.25, name
        # And no path shows TFRC wildly out of range at long timescales.
        assert result.equivalence_by_tau[taus[-1]] <= 1.0
    # The broken-RTO "Solaris" sender must not beat the healthy "Linux" one.
    linux = results["umass_linux"]
    solaris = results["umass_solaris"]
    tau = sorted(linux.equivalence_by_tau)[-1]
    assert solaris.equivalence_by_tau[tau] <= linux.equivalence_by_tau[tau] + 0.1
