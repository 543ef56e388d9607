"""Figure 6 (and 7): TCP throughput while co-existing with TFRC.

n TCP and n TFRC flows share a bottleneck; the link rate is swept over
1..64 Mb/s and the total flow count over 2..128, for DropTail and RED
queueing.  The figure reports mean TCP throughput over the last 60 s of
simulation, normalized so 1.0 is a fair share of the link; the queue size
scales with the bandwidth.

Figure 7 is the per-flow scatter of the 15 Mb/s column: every
:class:`CellResult` (from :func:`run_cell` or a ``fig06_cell`` sweep
cell) carries one normalized throughput per flow in ``per_flow_tcp`` /
``per_flow_tfrc`` (``benchmarks/test_fig07_throughput_variance.py``
summarizes and asserts it).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Sequence

import numpy as np

from repro.scenarios import (
    ScenarioSpec,
    SweepRunner,
    register_scenario,
    run_mixed_dumbbell,
    steady_state_window,
)
from repro.scenarios.spec import JsonDict

DURATION = 90.0
#: throughput is measured over the last third of the run (the paper's last
#: 60 s of 90).
MEASURE_FRACTION = 2.0 / 3.0


@dataclass
class CellResult:
    """One (link rate, flow count, queue type) grid cell."""

    link_bps: float
    total_flows: int
    queue_type: str
    mean_tcp_normalized: float
    mean_tfrc_normalized: float
    per_flow_tcp: List[float] = field(default_factory=list)
    per_flow_tfrc: List[float] = field(default_factory=list)
    utilization: float = 0.0
    loss_rate: float = 0.0


@dataclass
class Fig06Result:
    cells: List[CellResult] = field(default_factory=list)

    def cell(self, link_bps: float, total_flows: int, queue_type: str) -> CellResult:
        for cell in self.cells:
            if (
                cell.link_bps == link_bps
                and cell.total_flows == total_flows
                and cell.queue_type == queue_type
            ):
                return cell
        raise KeyError((link_bps, total_flows, queue_type))


def run_cell(
    link_bps: float,
    total_flows: int,
    queue_type: str,
    duration: float = DURATION,
    seed: int = 0,
    measure_fraction: float = MEASURE_FRACTION,
) -> CellResult:
    """One simulation cell; ``total_flows`` is split evenly TCP/TFRC."""
    if total_flows < 2 or total_flows % 2 != 0:
        raise ValueError("total_flows must be an even number >= 2")
    n = total_flows // 2
    result = run_mixed_dumbbell(
        duration=duration,
        n_tfrc=n,
        n_tcp=n,
        bandwidth_bps=link_bps,
        queue_type=queue_type,
        seed=seed,
    )
    t0, t1 = steady_state_window(duration, measure_fraction)
    tcp = [result.normalized_throughput(fid, t0, t1) for fid in result.tcp_ids]
    tfrc = [result.normalized_throughput(fid, t0, t1) for fid in result.tfrc_ids]
    fair = link_bps / total_flows
    utilization = sum(v * fair for v in tcp + tfrc) / link_bps
    return CellResult(
        link_bps=link_bps,
        total_flows=total_flows,
        queue_type=queue_type,
        mean_tcp_normalized=float(np.mean(tcp)),
        mean_tfrc_normalized=float(np.mean(tfrc)),
        per_flow_tcp=tcp,
        per_flow_tfrc=tfrc,
        utilization=utilization,
        loss_rate=result.link_monitor.loss_rate(),
    )


@register_scenario("fig06_cell")
def cell_scenario(spec: ScenarioSpec) -> JsonDict:
    """Declarative Figure 6 cell, executable by the sweep runner.

    Spec layout::

        topology: {bandwidth_bps}
        flows:    {total}
        queue:    {type}
        extra:    {measure_fraction}
    """
    return asdict(run_cell(
        link_bps=float(spec.topology["bandwidth_bps"]),
        total_flows=int(spec.flows["total"]),
        queue_type=str(spec.queue["type"]),
        duration=spec.duration,
        seed=spec.seed,
        measure_fraction=float(spec.extra["measure_fraction"]),
    ))


def run(
    link_rates_mbps: Sequence[float] = (1, 2, 4, 8, 16, 32, 64),
    flow_counts: Sequence[int] = (2, 8, 32, 128),
    queue_types: Sequence[str] = ("droptail", "red"),
    duration: float = DURATION,
    seed: int = 0,
    **sweep: object,
) -> Fig06Result:
    """The full fairness grid as a sweep.  Reduce the sweeps for quicker
    runs; ``parallel=N`` fans the cells out over N worker processes and
    ``cache_dir`` re-uses previously simulated cells."""
    base = ScenarioSpec(
        scenario="fig06_cell",
        duration=duration,
        seed=seed,
        extra={"measure_fraction": MEASURE_FRACTION},
    )
    grid = {
        "queue.type": [str(q) for q in queue_types],
        "topology.bandwidth_bps": [rate * 1e6 for rate in link_rates_mbps],
        "flows.total": [int(n) for n in flow_counts],
    }
    result = Fig06Result()
    for cell in SweepRunner(base, grid, **sweep).run().complete_cells():
        result.cells.append(CellResult(**cell.result))
    return result
