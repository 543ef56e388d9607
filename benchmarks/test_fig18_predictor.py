"""Figure 18 bench: prediction quality of the TFRC loss estimator.

Scores constant- vs decreasing-weight predictors at history sizes 2..32 on
loss-interval traces collected from the synthetic Internet paths.  The
paper's shape: errors are broadly flat in history size (n=8 is a reasonable
choice); decreasing weights cost essentially nothing in accuracy.
"""

from repro.experiments.runner import FIGURES

FIGURE = FIGURES["fig18"]


def test_fig18_predictor(once, benchmark):
    result = once(benchmark, FIGURE.entry(), **FIGURE.quick)
    print("\nFigure 18 reproduction (mean prediction error):")
    print("  history  constant   decreasing")
    for history in result.history_sizes:
        c_mean, _ = result.constant_weights[history]
        d_mean, _ = result.decreasing_weights[history]
        print(f"  {history:7d}  {c_mean:.4f}    {d_mean:.4f}")
    # Errors are finite, positive and of the right order for the loss rates
    # involved (paper's y-axis: 0..0.01).
    for bucket in (result.constant_weights, result.decreasing_weights):
        for history, (mean_err, std_err) in bucket.items():
            assert 0.0 <= mean_err < 0.2
            assert std_err >= 0.0
    # Decreasing weights do not cost much accuracy at the paper's n=8.
    c8 = result.constant_weights[8][0]
    d8 = result.decreasing_weights[8][0]
    assert d8 <= c8 * 1.3 + 1e-6
    # The error landscape is broadly flat: best and worst history sizes
    # differ by less than a factor of three.
    means = [result.decreasing_weights[h][0] for h in result.history_sizes]
    assert max(means) < 3 * min(means) + 1e-6
