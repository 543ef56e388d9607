"""Figure 19 / Appendix A.1 bench: the bounded increase rate of TFRC.

Regenerates the allowed-rate trace around the end of congestion and holds
both measured slopes to Appendix A.1 as ``reference_models`` derives it
from the WALI weights and Eq. 1: the newest interval's share is 1/6, so
the increase per RTT rises with the average loss interval ``A`` towards
a supremum of 1/8 packet/RTT/RTT; with history discounting at its 0.3
floor the share is 2/5 and the supremum 3/10.  The increase also starts
late: the open interval must first exceed the average.
"""

from fractions import Fraction

from reference_models import (
    increase_limit_exact,
    increase_per_rtt_exact,
    newest_weight_exact,
    wali_weights_exact,
)
from repro.experiments import fig19_increase as fig19
from repro.experiments.runner import FIGURES

FIGURE = FIGURES["fig19"]

#: the lower edges' allowance for sampling the slope on the feedback clock
#: (``mean_slope`` reads two samples whose phase drifts); the suprema get
#: none.
SAMPLING_TOL = 0.02


def test_fig19_increase_rate(once, benchmark):
    result = once(benchmark, FIGURE.entry(), **FIGURE.full)
    start = result.increase_start_time()
    normal_slope = result.mean_slope(start, start + 0.7)
    late_slope = result.mean_slope(result.loss_stop_time + 2.0, result.times[-1])
    weights = wali_weights_exact(8)
    share = newest_weight_exact(weights)
    floor_share = newest_weight_exact(weights, Fraction(3, 10))
    # The increase rises monotonically in A, and A is at least the loss
    # period once loss stops: the step at A = LOSS_PERIOD is the floor.
    at_loss_period = float(increase_per_rtt_exact(fig19.LOSS_PERIOD, share))
    limit = float(increase_limit_exact(share))
    floor_limit = float(increase_limit_exact(floor_share))
    print("\nFigure 19 reproduction:")
    print(f"  increase starts at t = {start:.2f} (loss stops at 10.0; paper: ~10.75)")
    print("                        measured  derived (Appendix A.1)")
    print(f"  early increase rate : {normal_slope:8.4f}  "
          f"{at_loss_period:.4f} .. {limit:.4f} (share {share})")
    print(f"  discounted rate     : {late_slope:8.4f}  "
          f"{limit:.4f} .. {floor_limit:.4f} (share {floor_share} at the floor)")
    # The rate does not increase immediately: the current interval must
    # first exceed the average (paper: ~0.75 s for p=0.01).
    assert result.loss_stop_time + 0.2 <= start <= result.loss_stop_time + 1.5
    # Undiscounted: between the step at the loss period and 1/8.
    assert at_loss_period * (1 - SAMPLING_TOL) <= normal_slope <= limit
    # Discounted: faster than any undiscounted increase, at most 3/10.
    assert limit * (1 - SAMPLING_TOL) < late_slope <= floor_limit
