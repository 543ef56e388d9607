"""Figure 5: loss-event fraction vs Bernoulli loss probability.

For flows obeying the control equation (and flows at 2x and 0.5x the
calculated rate), the paper plots the loss-event fraction against the packet
loss probability, showing the two nearly coincide at low and high loss and
differ by at most ~10% at moderate loss.

This module evaluates the self-consistent analytic mapping of section 3.5.1
and cross-checks it with a Monte-Carlo packet stream.  Each rate multiplier
is one cell of a :class:`~repro.scenarios.sweep.SweepRunner` sweep over the
registered ``fig05_curve`` scenario, so ``--parallel`` / ``--cache`` come
for free and Monte-Carlo streams are seeded deterministically per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.analysis.bernoulli import (
    consistent_loss_event_fraction,
    packets_per_rtt_from_equation,
    simulate_loss_event_fraction,
)
from repro.scenarios import ScenarioSpec, SweepRunner, register_scenario
from repro.scenarios.spec import JsonDict

P_LOSS_VALUES = tuple(float(p) for p in np.linspace(0.005, 0.25, 25))
#: packets in each Monte-Carlo stream.
MC_PACKETS = 100_000
#: rates at 0.5x, 1x and 2x the equation's.
MULTIPLIERS = (0.5, 1.0, 2.0)
RTT = 0.1
PACKET_SIZE = 1000


@dataclass
class Fig05Result:
    """p_event as a function of p_loss, per rate multiplier."""

    p_loss_values: List[float]
    p_event_by_multiplier: Dict[float, List[float]] = field(default_factory=dict)
    p_event_monte_carlo: Dict[float, List[float]] = field(default_factory=dict)

    def max_relative_gap(self, multiplier: float = 1.0) -> float:
        """max over p_loss of (p_loss - p_event) / p_loss."""
        gaps = [
            (pl - pe) / pl
            for pl, pe in zip(self.p_loss_values, self.p_event_by_multiplier[multiplier])
            if pl > 0
        ]
        return max(gaps) if gaps else 0.0


@register_scenario("fig05_curve")
def curve_scenario(spec: ScenarioSpec) -> JsonDict:
    """One Figure 5 curve (one rate multiplier) as a sweep cell.

    Spec layout::

        topology: {rtt, packet_size}
        flows:    {rate_multiplier}
        extra:    {p_loss_values, monte_carlo, mc_packets}
    """
    p_loss_values = [float(p) for p in spec.extra["p_loss_values"]]
    multiplier = float(spec.flows["rate_multiplier"])
    rtt = float(spec.topology["rtt"])
    packet_size = int(spec.topology["packet_size"])
    analytic = [
        consistent_loss_event_fraction(
            p_loss, packet_size=packet_size, rtt=rtt, rate_multiplier=multiplier
        )
        for p_loss in p_loss_values
    ]
    result: JsonDict = {
        "rate_multiplier": multiplier,
        "p_loss_values": p_loss_values,
        "analytic": analytic,
    }
    if bool(spec.extra["monte_carlo"]):
        rng = np.random.default_rng(spec.seed)
        mc_packets = int(spec.extra["mc_packets"])
        simulated = []
        for p_loss, p_event in zip(p_loss_values, analytic):
            n = packets_per_rtt_from_equation(
                max(p_event, 1e-6),
                packet_size=packet_size,
                rtt=rtt,
                rate_multiplier=multiplier,
            )
            simulated.append(
                simulate_loss_event_fraction(
                    p_loss, max(n, 1.0), total_packets=mc_packets, rng=rng
                )
            )
        result["monte_carlo"] = simulated
    return result


def run(monte_carlo: bool, seed: int = 0, **sweep: object) -> Fig05Result:
    """Compute the Figure 5 curves as a sweep over rate multipliers.

    Each multiplier is one cell; ``parallel=N`` fans cells out over worker
    processes and ``cache_dir`` re-uses previously computed curves.  Cells
    derive their Monte-Carlo seed from ``seed`` plus the cell overrides
    (``seed_mode="derived"``), so results are independent of execution
    order and worker count.
    """
    base = ScenarioSpec(
        scenario="fig05_curve",
        seed=seed,
        duration=0.0,  # analytic + Monte-Carlo: no simulated clock
        topology={"rtt": RTT, "packet_size": PACKET_SIZE},
        extra={
            "p_loss_values": list(P_LOSS_VALUES),
            "monte_carlo": bool(monte_carlo),
            "mc_packets": MC_PACKETS,
        },
    )
    cells = SweepRunner(
        base,
        {"flows.rate_multiplier": list(MULTIPLIERS)},
        seed_mode="derived",
        **sweep,
    ).run().complete_cells()
    result = Fig05Result(p_loss_values=list(P_LOSS_VALUES))
    for cell in cells:
        data = cell.result
        multiplier = float(data["rate_multiplier"])
        result.p_event_by_multiplier[multiplier] = [
            float(v) for v in data["analytic"]
        ]
        if "monte_carlo" in data:
            result.p_event_monte_carlo[multiplier] = [
                float(v) for v in data["monte_carlo"]
            ]
    return result
