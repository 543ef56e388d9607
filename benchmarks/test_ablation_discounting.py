"""Ablation: history discounting on/off (sections 3.3 and A.1).

Discounting exists to speed the response to a *sustained decrease* in
congestion without disturbing steady-state behaviour.  This bench runs the
Figure 19 scenario both ways and checks:

* identical behaviour before and shortly after congestion ends,
* faster recovery with discounting once the lull is long,
* the respective increase-rate bounds (~0.12 vs up to ~0.3 pkts/RTT/RTT).
"""

from repro.experiments import fig19_increase as fig19
from repro.experiments.runner import FIGURES

SCALE = FIGURES["fig19"].full


def run_both():
    with_discounting = fig19.run(**SCALE, history_discounting=True)
    without = fig19.run(**SCALE, history_discounting=False)
    return with_discounting, without


def test_history_discounting_ablation(once, benchmark):
    with_disc, without = once(benchmark, run_both)
    # Identical during congestion (discounting never engages there).
    pre_with = [
        r for t, r in zip(with_disc.times, with_disc.rate_pkts_per_rtt) if 8 <= t < 10
    ]
    pre_without = [
        r for t, r in zip(without.times, without.rate_pkts_per_rtt) if 8 <= t < 10
    ]
    assert abs(sum(pre_with) / len(pre_with) - sum(pre_without) / len(pre_without)) < 0.5

    # After a long lull, discounting has recovered visibly more.
    final_with = with_disc.rate_pkts_per_rtt[-1]
    final_without = without.rate_pkts_per_rtt[-1]
    assert final_with > final_without

    late_slope_with = with_disc.mean_slope(12.0, with_disc.times[-1])
    late_slope_without = without.mean_slope(12.0, without.times[-1])
    print("\nHistory discounting ablation:")
    print(f"  final rate   : {final_with:.1f} vs {final_without:.1f} pkts/RTT")
    print(f"  late slope   : {late_slope_with:.3f} vs {late_slope_without:.3f} pkts/RTT^2")
    # Bounds: without discounting ~0.12; with, up to ~0.3.
    assert late_slope_without <= 0.20
    assert late_slope_with <= 0.40
    assert late_slope_with > late_slope_without
