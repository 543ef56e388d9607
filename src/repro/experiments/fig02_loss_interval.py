"""Figure 2: the Average Loss Interval method under idealized periodic loss.

The paper drives a TFRC flow over a link whose loss rate is 1% before t=6 s,
10% from t=6 to t=9, and 0.5% afterwards, with *periodic* (deterministic)
loss, and plots: the current loss interval s0 and the estimated average
interval (top); the estimated loss event rate p and sqrt(p) (middle); and
the transmission rate (bottom).

Expected shape (paper section 3.3):

* a completely stable estimate while the loss rate is constant,
* a rapid rate reduction when the loss rate jumps to 10%,
* a smooth rate increase (no step changes) when it falls to 0.5%.

The run is one ``fig02_loss_interval`` scenario cell executed through
:class:`~repro.scenarios.sweep.SweepRunner`, so the runner CLI contract
(``--parallel N``, ``--cache``) and spec-hash result caching come for free.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List

from repro.scenarios import ScenarioSpec, register_scenario, run_single_cell
from repro.scenarios.builders import (
    loss_model_from_spec,
    periodic_phase,
    run_single_tfrc_on_lossy_path,
)
from repro.scenarios.spec import JsonDict

RTT = 0.1
#: ``(start time, drop period)``: 1% periodic loss, 10% from t = 6 s, 0.5%
#: from t = 9 s.
PHASES = ((0.0, 100), (6.0, 10), (9.0, 200))
PROBE_INTERVAL = 0.1


@dataclass
class Fig02Result:
    """Time series sampled once per probe interval."""

    times: List[float] = field(default_factory=list)
    current_interval: List[float] = field(default_factory=list)
    estimated_interval: List[float] = field(default_factory=list)
    loss_event_rate: List[float] = field(default_factory=list)
    tx_rate_bytes: List[float] = field(default_factory=list)

    def series_between(self, t0: float, t1: float, name: str) -> List[float]:
        values = getattr(self, name)
        return [v for t, v in zip(self.times, values) if t0 <= t <= t1]


@register_scenario("fig02_loss_interval")
def loss_interval_scenario(spec: ScenarioSpec) -> JsonDict:
    """The Figure 2 probe run as one sweep cell.

    Spec layout::

        topology: {rtt}
        loss:     {model: "scheduled", phases: [...]} (the 1%/10%/0.5% steps)
        extra:    {probe_interval}
    """
    series: JsonDict = asdict(Fig02Result())

    def probe(sim, flow) -> None:
        series["times"].append(sim.now)
        series["current_interval"].append(
            flow.receiver.detector.open_interval_packets()
        )
        series["estimated_interval"].append(
            flow.receiver.intervals.average_interval()
        )
        series["loss_event_rate"].append(flow.receiver.loss_event_rate())
        series["tx_rate_bytes"].append(flow.sender.rate)

    run_single_tfrc_on_lossy_path(
        loss_model=loss_model_from_spec(dict(spec.loss)),
        duration=spec.duration,
        rtt=float(spec.topology["rtt"]),
        probe=probe,
        probe_interval=float(spec.extra["probe_interval"]),
    )
    return series


def run(duration: float, **sweep: object) -> Fig02Result:
    """Run the Figure 2 scenario and sample the estimator state."""
    base = ScenarioSpec(
        scenario="fig02_loss_interval",
        duration=float(duration),
        topology={"rtt": RTT},
        loss={
            "model": "scheduled",
            "phases": [periodic_phase(at, period) for at, period in PHASES],
        },
        extra={"probe_interval": PROBE_INTERVAL},
    )
    return Fig02Result(**run_single_cell(base, **sweep))


def summarize(result: Fig02Result) -> dict:
    """Key scalars for the CLI printout and the bench assertions."""
    (t_phase2, _), (t_phase3, _) = PHASES[1:]
    stable = result.series_between(4.0, t_phase2 - 0.5, "estimated_interval")
    high = result.series_between(t_phase2 + 1.5, t_phase3, "loss_event_rate")
    low_phase = result.series_between(t_phase3 + 4.0, result.times[-1], "loss_event_rate")
    rate_high = result.series_between(t_phase2 + 1.5, t_phase3, "tx_rate_bytes")
    rate_stable = result.series_between(4.0, t_phase2 - 0.5, "tx_rate_bytes")
    return {
        "stable_interval_mean": sum(stable) / len(stable) if stable else 0.0,
        "stable_interval_spread": (max(stable) - min(stable)) if stable else 0.0,
        "p_during_10pct": sum(high) / len(high) if high else 0.0,
        "p_after_decrease": sum(low_phase) / len(low_phase) if low_phase else 0.0,
        "rate_drop_factor": (
            (sum(rate_stable) / len(rate_stable)) / (sum(rate_high) / len(rate_high))
            if rate_stable and rate_high
            else 0.0
        ),
    }
