"""Figure 19 / Appendix A.1: the bounded increase rate of TFRC.

One TFRC flow experiences a drop every 100th packet; at t=10 the loss stops
entirely.  The paper observes the allowed sending rate (packets per RTT):

* the flow does not increase at all until the current loss interval exceeds
  the average (~0.75 s after the loss stops);
* it then increases by ~0.12 packets/RTT each RTT;
* once history discounting engages (around t=11.5), the increase rate grows
  to at most ~0.28 packets/RTT.

The experiment samples the sender's allowed rate every RTT and reports the
observed per-RTT increments before and after discounting engages.  Each run
is one ``fig19_increase`` scenario cell (the step-loss pattern is plain
spec data), executed through the sweep runner for ``--parallel``/``--cache``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.equations import (
    DELTA_T_DISCOUNTED_BOUND,
    DELTA_T_EQ1_BOUND,
    analytic_rate_increase,
)
from repro.scenarios import ScenarioSpec, register_scenario, run_single_cell
from repro.scenarios.builders import (
    lossless_phase,
    loss_model_from_spec,
    periodic_phase,
    run_single_tfrc_on_lossy_path,
)
from repro.scenarios.spec import JsonDict

#: one drop every this-many packets until the loss stops.
LOSS_PERIOD = 100
LOSS_STOP_TIME = 10.0
RTT = 0.1


@dataclass
class Fig19Result:
    times: List[float] = field(default_factory=list)
    rate_pkts_per_rtt: List[float] = field(default_factory=list)
    loss_stop_time: float = LOSS_STOP_TIME
    rtt: float = RTT

    def increments(self, t0: float, t1: float) -> List[float]:
        """Per-sample rate increments (packets/RTT) within [t0, t1]."""
        pairs = [
            (t, r)
            for t, r in zip(self.times, self.rate_pkts_per_rtt)
            if t0 <= t <= t1
        ]
        return [b[1] - a[1] for a, b in zip(pairs, pairs[1:])]

    def max_increment(self, t0: float, t1: float) -> float:
        increments = self.increments(t0, t1)
        return max(increments) if increments else 0.0

    def mean_slope(self, t0: float, t1: float) -> float:
        """Average rate growth in packets/RTT per RTT over [t0, t1].

        This is the quantity the paper reports ("increases its sending rate
        by 0.12 packets each RTT"); per-sample increments are noisy because
        the feedback clock and the probe clock drift in phase.
        """
        pairs = [
            (t, r)
            for t, r in zip(self.times, self.rate_pkts_per_rtt)
            if t0 <= t <= t1
        ]
        if len(pairs) < 2:
            return 0.0
        (ta, ra), (tb, rb) = pairs[0], pairs[-1]
        if tb <= ta:
            return 0.0
        return (rb - ra) / ((tb - ta) / self.rtt)

    def increase_start_time(self) -> float:
        """First time after loss stops at which the rate exceeds its plateau."""
        plateau = None
        for t, r in zip(self.times, self.rate_pkts_per_rtt):
            if t >= self.loss_stop_time:
                if plateau is None:
                    plateau = r
                elif r > plateau * 1.02:
                    return t
        return float("inf")


@register_scenario("fig19_increase")
def increase_scenario(spec: ScenarioSpec) -> JsonDict:
    """The Appendix A.1 probe run as one sweep cell.

    Spec layout::

        topology: {rtt}
        loss:     {model: "scheduled", phases: [...]} (loss stops mid-run)
        extra:    {probe_interval, history_discounting}
    """
    rtt = float(spec.topology["rtt"])
    series: JsonDict = {"times": [], "rate_pkts_per_rtt": []}

    def probe(sim, flow) -> None:
        series["times"].append(sim.now)
        series["rate_pkts_per_rtt"].append(
            flow.sender.rate * rtt / flow.sender.packet_size
        )

    run_single_tfrc_on_lossy_path(
        loss_model=loss_model_from_spec(dict(spec.loss)),
        duration=spec.duration,
        rtt=rtt,
        probe=probe,
        probe_interval=float(spec.extra["probe_interval"]),
        history_discounting=bool(spec.extra["history_discounting"]),
    )
    return series


def run(
    duration: float, history_discounting: bool = True, **sweep: object
) -> Fig19Result:
    """Run the Appendix A.1 scenario, sampling once per RTT."""
    base = ScenarioSpec(
        scenario="fig19_increase",
        duration=float(duration),
        topology={"rtt": RTT},
        loss={
            "model": "scheduled",
            "phases": [
                periodic_phase(0.0, LOSS_PERIOD),
                lossless_phase(LOSS_STOP_TIME),
            ],
        },
        extra={
            "probe_interval": RTT,
            "history_discounting": bool(history_discounting),
        },
    )
    return Fig19Result(**run_single_cell(base, **sweep))


def analytic_bounds() -> dict:
    """The closed-form Appendix A.1 numbers for comparison: the average
    loss interval is the loss period."""
    average_interval = float(LOSS_PERIOD)
    return {
        "delta_normal_simple": analytic_rate_increase(average_interval, 1.0 / 6.0),
        "delta_discounted_simple": analytic_rate_increase(average_interval, 0.4),
        "paper_bound_eq1": DELTA_T_EQ1_BOUND,
        "paper_bound_discounted": DELTA_T_DISCOUNTED_BOUND,
    }
