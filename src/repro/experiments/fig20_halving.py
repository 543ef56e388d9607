"""Figures 20 and 21 / Appendix A.2: response to persistent congestion.

Figure 20: a single TFRC flow sees a drop every 100th packet until t=10,
then every 2nd packet (persistent congestion).  The paper shows the allowed
sending rate taking **five** round-trip times to halve.

Figure 21: the same scenario swept over initial drop rates 1/period for
period in a range; the number of RTTs to halve the rate ranges from three
to eight, with at least five at low drop rates.

Each configuration is one ``fig20_halving`` scenario cell; Figure 21's drop
-rate axis is a :class:`~repro.scenarios.sweep.SweepRunner` grid over the
step-loss phases, so ``--parallel N`` fans the sweep out over worker
processes and ``--cache`` re-uses previously simulated cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.scenarios import (
    ScenarioSpec,
    SweepRunner,
    register_scenario,
    run_single_cell,
)
from repro.scenarios.builders import (
    loss_model_from_spec,
    periodic_phase,
    run_single_tfrc_on_lossy_path,
)
from repro.scenarios.spec import JsonDict

#: one drop every this-many packets from the onset on.
CONGESTED_PERIOD = 2
#: Figure 20's drop period before the onset.
INITIAL_PERIOD = 100
ONSET = 10.0
RTT = 0.1
#: simulated seconds of Figure 20's run and of each Figure 21 cell.
DURATION = 14.0
SWEEP_DURATION = 16.0


@dataclass
class HalvingResult:
    """Rate samples around the onset of persistent congestion."""

    times: List[float] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)  # bytes/second
    onset: float = ONSET
    rtt: float = RTT

    def rtts_to_halve(self) -> Optional[float]:
        """RTTs from onset until the allowed rate is half its pre-onset value.

        Returns None if the rate never halves within the samples.
        """
        pre = [r for t, r in zip(self.times, self.rates) if self.onset - 1.0 <= t < self.onset]
        if not pre:
            return None
        baseline = sum(pre) / len(pre)
        for t, r in zip(self.times, self.rates):
            if t >= self.onset and r <= baseline / 2.0:
                return (t - self.onset) / self.rtt
        return None


@register_scenario("fig20_halving")
def halving_scenario(spec: ScenarioSpec) -> JsonDict:
    """One persistent-congestion probe run as a sweep cell.

    Spec layout::

        topology: {rtt}
        loss:     {model: "scheduled", phases: [...]} (congestion at onset)
        extra:    {probe_interval}
    """
    rtt = float(spec.topology["rtt"])
    series: JsonDict = {"times": [], "rates": []}

    def probe(sim, flow) -> None:
        series["times"].append(sim.now)
        series["rates"].append(flow.sender.rate)

    run_single_tfrc_on_lossy_path(
        loss_model=loss_model_from_spec(dict(spec.loss)),
        duration=spec.duration,
        rtt=rtt,
        probe=probe,
        probe_interval=float(spec.extra["probe_interval"]),
    )
    return series


def _spec(initial_period: int, duration: float) -> ScenarioSpec:
    """One drop every ``initial_period`` packets until the onset, then
    persistent congestion; the rate is sampled twice per RTT."""
    return ScenarioSpec(
        scenario="fig20_halving",
        duration=float(duration),
        topology={"rtt": RTT},
        loss={
            "model": "scheduled",
            "phases": [
                periodic_phase(0.0, initial_period),
                periodic_phase(ONSET, CONGESTED_PERIOD),
            ],
        },
        extra={"probe_interval": RTT / 2.0},
    )


def run(**sweep: object) -> HalvingResult:
    """Run the Figure 20 scenario: one drop every ``INITIAL_PERIOD``
    packets, ``DURATION`` simulated seconds."""
    return HalvingResult(
        **run_single_cell(_spec(INITIAL_PERIOD, DURATION), **sweep)
    )


@dataclass
class Fig21Result:
    """RTTs-to-halve as a function of the initial packet drop rate."""

    drop_rates: List[float] = field(default_factory=list)
    rtts_to_halve: List[Optional[float]] = field(default_factory=list)

    def defined(self) -> List[Tuple[float, float]]:
        return [
            (p, n) for p, n in zip(self.drop_rates, self.rtts_to_halve) if n is not None
        ]


def run_sweep(initial_periods: Sequence[int], **sweep: object) -> Fig21Result:
    """Figure 21: sweep the pre-congestion drop rate, ``SWEEP_DURATION``
    simulated seconds per cell.

    One grid axis -- the scheduled loss phases, one value per initial drop
    period -- so every drop rate is an independent cell.
    """
    specs = [_spec(period, SWEEP_DURATION) for period in initial_periods]
    cells = SweepRunner(
        specs[0],
        {"loss.phases": [spec.loss["phases"] for spec in specs]},
        **sweep,
    ).run().complete_cells()
    result = Fig21Result()
    for period, cell in zip(initial_periods, cells):
        result.drop_rates.append(1.0 / period)
        result.rtts_to_halve.append(HalvingResult(**cell.result).rtts_to_halve())
    return result


def run_both(
    initial_periods: Sequence[int], **sweep: object
) -> Tuple[HalvingResult, Fig21Result]:
    """Figure 20's run, then Figure 21's sweep over ``initial_periods``."""
    halving = run(**sweep)
    return halving, run_sweep(initial_periods, **sweep)
