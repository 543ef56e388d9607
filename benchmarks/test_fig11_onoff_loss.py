"""Figure 11 bench: bottleneck loss rate vs number of ON/OFF sources.

The paper sweeps 50-150 Pareto ON/OFF sources; the loss rate grows steeply
with the offered background load (up to ~40% at 150 sources in the paper's
5000 s runs).
"""

from repro.experiments import fig11_onoff as fig11

# The heavy-load claim (~2x the link) needs 140 sources; the quick row stops at 100.
COUNTS = (60, 100, 140)


def test_fig11_onoff_loss_rate(once, benchmark):
    result = once(
        benchmark, fig11.run, source_counts=COUNTS, duration=120.0,
    )
    curve = [(run.sources, run.loss_rate) for run in result.runs]
    print("\nFigure 11 reproduction (loss rate vs ON/OFF sources):")
    for sources, loss in curve:
        print(f"  {sources:4d} sources: {loss * 100:5.1f}%")
    losses = [loss for _, loss in curve]
    # Monotone increasing (allowing tiny wiggle) and spanning a wide range.
    assert losses[-1] > losses[0]
    assert losses[0] < 0.12          # light load: low loss
    assert losses[-1] > 0.08         # heavy load: serious loss
    # Offered load at 140 sources is ~2x the link: loss must be substantial.
    assert all(0.0 <= loss < 0.6 for loss in losses)
