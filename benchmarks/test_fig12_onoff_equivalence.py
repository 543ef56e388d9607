"""Figure 12 bench: TFRC/TCP equivalence with ON/OFF background traffic.

Paper's shape: at low loss the equivalence ratio is ~0.7-0.8 over a broad
range of timescales; at higher loss it degrades at short timescales but
stays meaningful at long ones.
"""

import math

from repro.experiments import fig11_onoff as fig11


# The heavy-loss curve needs 140 sources (~36 % loss); the quick row stops at 100.
def test_fig12_onoff_equivalence(once, benchmark):
    light = once(benchmark, fig11.run, source_counts=(60,), duration=150.0).runs[0]
    heavy = fig11.run(source_counts=(140,), duration=150.0).runs[0]
    print("\nFigure 12 reproduction (TFRC/TCP equivalence by timescale):")
    for result in (light, heavy):
        pairs = ", ".join(
            f"{tau:g}s={ratio:.2f}"
            for tau, ratio in sorted(result.equivalence_by_tau.items())
            if not math.isnan(ratio)
        )
        print(f"  {result.sources:4d} sources (loss {result.loss_rate:.2f}): {pairs}")
    # Light load: decent equivalence at moderate-to-long timescales.
    long_taus = [t for t in light.equivalence_by_tau if t >= 5.0]
    assert long_taus
    light_long = max(light.equivalence_by_tau[t] for t in long_taus)
    assert light_long > 0.45
    # Equivalence improves with timescale under heavy loss.
    heavy_vals = [v for _, v in sorted(heavy.equivalence_by_tau.items())
                  if not math.isnan(v)]
    assert heavy_vals and max(heavy_vals[-2:]) >= max(heavy_vals[:2])
    # Both monitored flows moved data.
    assert light.tcp_throughput_bps > 0 and light.tfrc_throughput_bps > 0
