"""Figures 9 and 10: equivalence ratio and CoV vs measurement timescale.

The paper's steady-state scenario (section 4.1.2): 16 SACK TCP and 16 TFRC
flows on a 15 Mb/s, 50 ms RED bottleneck; flow RTTs uniform in (80, 120) ms;
starts staggered over 10 s; 150 s duration measured over the last 100 s;
results averaged over 14 runs with 90% confidence intervals.

Figure 9 plots the mean equivalence ratio (TFRC/TFRC, TCP/TCP, TFRC/TCP
pairs) against the timescale tau in {0.2, 0.5, 1, 2, 5, 10} s; Figure 10
plots the mean CoV of TCP and of TFRC flows at the same timescales.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.cov import coefficient_of_variation
from repro.analysis.equivalence import equivalence_ratio
from repro.analysis.stats import mean_and_ci
from repro.experiments.timescales import tau_maps_from_json, tau_maps_to_json
from repro.scenarios import (
    ScenarioSpec,
    SweepRunner,
    register_scenario,
    run_mixed_dumbbell,
)
from repro.scenarios.spec import JsonDict

PAPER_TIMESCALES = (0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
LINK_BPS = 15e6
#: TFRC flows, and as many TCP flows, on the link.
N_EACH = 16
#: a cell's per-timescale sample lists: the three equivalence pairings
#: (TFRC/TFRC, TCP/TCP, TFRC/TCP) and the two CoV populations.
SAMPLES = ("ee", "cc", "ec", "cov_tcp", "cov_tfrc")


@dataclass
class Fig09Result:
    """Per-timescale means and 90% CIs over the replicated runs."""

    timescales: List[float]
    equivalence_tfrc_tfrc: Dict[float, Tuple[float, float]] = field(default_factory=dict)
    equivalence_tcp_tcp: Dict[float, Tuple[float, float]] = field(default_factory=dict)
    equivalence_tfrc_tcp: Dict[float, Tuple[float, float]] = field(default_factory=dict)
    cov_tcp: Dict[float, Tuple[float, float]] = field(default_factory=dict)
    cov_tfrc: Dict[float, Tuple[float, float]] = field(default_factory=dict)
    loss_rates: List[float] = field(default_factory=list)


def _pair_up(ids: Sequence[str]) -> List[Tuple[str, str]]:
    """Adjacent disjoint pairs: (0,1), (2,3), ..."""
    return [(ids[i], ids[i + 1]) for i in range(0, len(ids) - 1, 2)]


def _cross_pairs(a: Sequence[str], b: Sequence[str]) -> List[Tuple[str, str]]:
    """Disjoint cross-protocol pairs: (a0,b0), (a1,b1), ..."""
    return list(zip(a, b))


@register_scenario("fig09_replication")
def replication_scenario(spec: ScenarioSpec) -> JsonDict:
    """One replicated steady-state run, reduced to per-pair samples.

    Returns the :data:`SAMPLES` lists, each map keyed by ``repr(tau)``
    (:mod:`repro.experiments.timescales`).

    Spec layout::

        topology: {bandwidth_bps}
        flows:    {n_each}
        queue:    {type}
        extra:    {timescales, measure_seconds}
    """
    timescales = [float(t) for t in spec.extra["timescales"]]
    measure_seconds = float(spec.extra["measure_seconds"])
    n_each = int(spec.flows["n_each"])
    sim_result = run_mixed_dumbbell(
        duration=spec.duration,
        n_tfrc=n_each,
        n_tcp=n_each,
        bandwidth_bps=float(spec.topology["bandwidth_bps"]),
        queue_type=str(spec.queue["type"]),
        seed=spec.seed,
    )
    out: JsonDict = {
        "loss_rate": sim_result.link_monitor.loss_rate(),
        **{name: {} for name in SAMPLES},
    }
    t0, t1 = spec.duration - measure_seconds, spec.duration
    for tau in timescales:
        series = {
            fid: sim_result.flow_monitor.rate_series(fid, t0, t1, tau)
            for fid in sim_result.tfrc_ids + sim_result.tcp_ids
        }
        out["ee"][tau] = [
            float(equivalence_ratio(series[a], series[b]))
            for a, b in _pair_up(sim_result.tfrc_ids)
        ]
        out["cc"][tau] = [
            float(equivalence_ratio(series[a], series[b]))
            for a, b in _pair_up(sim_result.tcp_ids)
        ]
        out["ec"][tau] = [
            float(equivalence_ratio(series[a], series[b]))
            for a, b in _cross_pairs(sim_result.tfrc_ids, sim_result.tcp_ids)
        ]
        out["cov_tcp"][tau] = [
            float(coefficient_of_variation(series[fid]))
            for fid in sim_result.tcp_ids
        ]
        out["cov_tfrc"][tau] = [
            float(coefficient_of_variation(series[fid]))
            for fid in sim_result.tfrc_ids
        ]
    return tau_maps_to_json(out, SAMPLES)


def run(
    runs: int,
    duration: float,
    measure_seconds: float,
    seed: int = 0,
    **sweep: object,
) -> Fig09Result:
    """Run the replicated steady-state scenario as a sweep over seeds.

    The paper runs 14 replications of 150 s.  The replications are
    independent cells, so ``parallel=N`` runs them N at a time.
    """
    timescales = [t for t in PAPER_TIMESCALES if t < measure_seconds / 2]
    base = ScenarioSpec(
        scenario="fig09_replication",
        duration=duration,
        seed=seed,
        flows={"n_each": N_EACH},
        topology={"bandwidth_bps": LINK_BPS},
        queue={"type": "red"},
        extra={"timescales": timescales, "measure_seconds": float(measure_seconds)},
    )
    cells = SweepRunner(
        base,
        {"seed": [seed + run_index for run_index in range(runs)]},
        **sweep,
    ).run().complete_cells()
    samples: Dict[str, Dict[float, List[float]]] = {
        key: {tau: [] for tau in timescales} for key in SAMPLES
    }
    result = Fig09Result(timescales=list(timescales))
    for cell in cells:
        data = tau_maps_from_json(cell.result, SAMPLES)
        result.loss_rates.append(float(data["loss_rate"]))
        for key in SAMPLES:
            for tau in timescales:
                samples[key][tau].extend(data[key][tau])
    for tau in timescales:
        result.equivalence_tfrc_tfrc[tau] = mean_and_ci(
            [v for v in samples["ee"][tau] if not np.isnan(v)]
        )
        result.equivalence_tcp_tcp[tau] = mean_and_ci(
            [v for v in samples["cc"][tau] if not np.isnan(v)]
        )
        result.equivalence_tfrc_tcp[tau] = mean_and_ci(
            [v for v in samples["ec"][tau] if not np.isnan(v)]
        )
        result.cov_tcp[tau] = mean_and_ci(samples["cov_tcp"][tau])
        result.cov_tfrc[tau] = mean_and_ci(samples["cov_tfrc"][tau])
    return result
