"""Figure 8: per-flow throughput traces at a 0.15 s timescale.

The paper plots the throughput of four TCP and four TFRC flows (from the
32-flow, 15 Mb/s simulations of Figure 6) over the second half of the run,
averaged over 0.15 s intervals -- "a plausible candidate for a minimum
interval over which bandwidth variations would begin to be noticeable to
multimedia users".  The visual message: TFRC's traces are much smoother.

Quantified here as the mean per-flow CoV of the 0.15 s rate series for each
protocol, for both RED and DropTail.  Each queue discipline is one
``fig08_smoothness`` scenario cell, so the two-queue comparison is a
:class:`~repro.scenarios.sweep.SweepRunner` grid (``--parallel``/``--cache``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.cov import coefficient_of_variation
from repro.analysis.timeseries import arrivals_to_rate_series
from repro.scenarios import (
    ScenarioSpec,
    SweepRunner,
    register_scenario,
    run_mixed_dumbbell,
    run_single_cell,
    steady_state_window,
)
from repro.scenarios.spec import JsonDict


@dataclass
class Fig08Result:
    queue_type: str
    tau: float
    traces_tcp: Dict[str, List[float]] = field(default_factory=dict)
    traces_tfrc: Dict[str, List[float]] = field(default_factory=dict)
    mean_cov_tcp: float = 0.0
    mean_cov_tfrc: float = 0.0


@register_scenario("fig08_smoothness")
def smoothness_scenario(spec: ScenarioSpec) -> JsonDict:
    """One Figure 8 run (one queue discipline) as a sweep cell.

    Spec layout::

        topology: {bandwidth_bps?}
        flows:    {total?, traced?}
        queue:    {type}
        extra:    {tau?}
    """
    total_flows = int(spec.flows.get("total", 32))
    traced_flows = int(spec.flows.get("traced", 4))
    tau = float(spec.extra.get("tau", 0.15))
    n = total_flows // 2
    sim_result = run_mixed_dumbbell(
        duration=spec.duration,
        n_tfrc=n,
        n_tcp=n,
        bandwidth_bps=float(spec.topology.get("bandwidth_bps", 15e6)),
        queue_type=str(spec.queue.get("type", "red")),
        seed=spec.seed,
    )
    t0, t1 = steady_state_window(spec.duration, 0.5)
    out: JsonDict = {
        "queue_type": str(spec.queue.get("type", "red")),
        "tau": tau,
        "traces_tcp": {},
        "traces_tfrc": {},
    }
    covs_tcp, covs_tfrc = [], []
    for rank, fid in enumerate(sim_result.tcp_ids):
        arrivals = sim_result.flow_monitor.arrivals.get(fid, [])
        series = [float(v) for v in arrivals_to_rate_series(arrivals, t0, t1, tau)]
        covs_tcp.append(coefficient_of_variation(series))
        if rank < traced_flows:
            out["traces_tcp"][fid] = series
    for rank, fid in enumerate(sim_result.tfrc_ids):
        arrivals = sim_result.flow_monitor.arrivals.get(fid, [])
        series = [float(v) for v in arrivals_to_rate_series(arrivals, t0, t1, tau)]
        covs_tfrc.append(coefficient_of_variation(series))
        if rank < traced_flows:
            out["traces_tfrc"][fid] = series
    out["mean_cov_tcp"] = float(np.mean(covs_tcp))
    out["mean_cov_tfrc"] = float(np.mean(covs_tfrc))
    return out


def _result_from_cell(data: JsonDict) -> Fig08Result:
    return Fig08Result(
        queue_type=str(data["queue_type"]),
        tau=float(data["tau"]),
        traces_tcp={fid: list(s) for fid, s in data["traces_tcp"].items()},
        traces_tfrc={fid: list(s) for fid, s in data["traces_tfrc"].items()},
        mean_cov_tcp=float(data["mean_cov_tcp"]),
        mean_cov_tfrc=float(data["mean_cov_tfrc"]),
    )


def _base_spec(
    total_flows: int,
    link_bps: float,
    duration: float,
    tau: float,
    traced_flows: int,
    seed: int,
    queue_type: str,
) -> ScenarioSpec:
    return ScenarioSpec(
        scenario="fig08_smoothness",
        duration=float(duration),
        seed=seed,
        topology={"bandwidth_bps": float(link_bps)},
        flows={"total": int(total_flows), "traced": int(traced_flows)},
        queue={"type": str(queue_type)},
        extra={"tau": float(tau)},
    )


def run(
    queue_type: str = "red",
    total_flows: int = 32,
    link_bps: float = 15e6,
    duration: float = 30.0,
    tau: float = 0.15,
    traced_flows: int = 4,
    seed: int = 0,
    **sweep: object,
) -> Fig08Result:
    """Run the Figure 8 scenario for one queue type."""
    base = _base_spec(
        total_flows, link_bps, duration, tau, traced_flows, seed, queue_type
    )
    data = run_single_cell(base, **sweep)
    return _result_from_cell(data)


def run_queues(
    queue_types: Sequence[str] = ("red", "droptail"),
    total_flows: int = 32,
    link_bps: float = 15e6,
    duration: float = 30.0,
    tau: float = 0.15,
    traced_flows: int = 4,
    seed: int = 0,
    **sweep: object,
) -> Dict[str, Fig08Result]:
    """The paper's two-queue comparison as one sweep (grid over ``queue.type``).

    Accepts the same keyword arguments as :func:`run` (``parallel``,
    ``cache_dir`` and ``progress`` fan out / re-use the per-queue cells).
    """
    if not queue_types:
        return {}
    base = _base_spec(
        total_flows, link_bps, duration, tau, traced_flows, seed,
        str(queue_types[0]),
    )
    cells = SweepRunner(
        base,
        {"queue.type": [str(q) for q in queue_types]},
        **sweep,
    ).run().complete_cells()
    results: Dict[str, Fig08Result] = {}
    for queue_type, cell in zip(queue_types, cells):
        results[str(queue_type)] = _result_from_cell(cell.result)
    return results
