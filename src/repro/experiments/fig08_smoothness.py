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

from dataclasses import asdict, dataclass, field
from typing import Dict, List

import numpy as np

from repro.analysis.cov import coefficient_of_variation
from repro.scenarios import (
    ScenarioSpec,
    SweepRunner,
    register_scenario,
    run_mixed_dumbbell,
    steady_state_window,
)
from repro.scenarios.spec import JsonDict


TOTAL_FLOWS = 32
LINK_BPS = 15e6
#: the throughput averaging interval, seconds.
TAU = 0.15
#: flows per protocol whose full trace is kept.
TRACED_FLOWS = 4
QUEUE_TYPES = ("red", "droptail")


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

        topology: {bandwidth_bps}
        flows:    {total, traced}
        queue:    {type}
        extra:    {tau}
    """
    traced_flows = int(spec.flows["traced"])
    tau = float(spec.extra["tau"])
    queue_type = str(spec.queue["type"])
    n = int(spec.flows["total"]) // 2
    sim_result = run_mixed_dumbbell(
        duration=spec.duration,
        n_tfrc=n,
        n_tcp=n,
        bandwidth_bps=float(spec.topology["bandwidth_bps"]),
        queue_type=queue_type,
        seed=spec.seed,
    )
    t0, t1 = steady_state_window(spec.duration, 0.5)
    out: JsonDict = asdict(Fig08Result(queue_type, tau))
    rate_series = sim_result.flow_monitor.rate_series
    for proto, ids in (("tcp", sim_result.tcp_ids), ("tfrc", sim_result.tfrc_ids)):
        covs = []
        for rank, fid in enumerate(ids):
            series = rate_series(fid, t0, t1, tau).tolist()
            covs.append(coefficient_of_variation(series))
            if rank < traced_flows:
                out[f"traces_{proto}"][fid] = series
        out[f"mean_cov_{proto}"] = float(np.mean(covs))
    return out


def run(duration: float, seed: int = 0, **sweep: object) -> Dict[str, Fig08Result]:
    """The paper's two-queue comparison as one sweep (grid over
    ``queue.type``); ``parallel``, ``cache_dir`` and ``progress`` fan out /
    re-use the per-queue cells."""
    base = ScenarioSpec(
        scenario="fig08_smoothness",
        duration=float(duration),
        seed=seed,
        topology={"bandwidth_bps": LINK_BPS},
        flows={"total": TOTAL_FLOWS, "traced": TRACED_FLOWS},
        queue={"type": QUEUE_TYPES[0]},
        extra={"tau": TAU},
    )
    cells = SweepRunner(
        base,
        {"queue.type": list(QUEUE_TYPES)},
        **sweep,
    ).run().complete_cells()
    return {
        queue_type: Fig08Result(**cell.result)
        for queue_type, cell in zip(QUEUE_TYPES, cells)
    }
