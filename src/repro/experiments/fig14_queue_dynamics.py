"""Figure 14: queue dynamics under 40 long-lived TCP vs 40 TFRC flows.

The paper's scenario: a 15 Mb/s DropTail bottleneck, round-trip times around
45 ms, 40 long-lived flows with start times spaced over the first 20 s, 20%
of the link used by short-lived background TCP, and a little reverse-path
traffic.  Both the all-TCP and the all-TFRC variants reach ~99% utilization;
the claim under test is that TFRC "does not have a negative impact on queue
dynamics": comparable queue occupancy and drop rate (the paper reports 4.9%
drops for TCP vs 3.5% for TFRC).

Each protocol variant is one ``fig14_queue_dynamics`` scenario cell, so the
TCP-vs-TFRC comparison runs as a two-cell
:class:`~repro.scenarios.sweep.SweepRunner` grid (``--parallel 2`` runs the
variants concurrently; ``--cache`` re-uses them).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Tuple

import numpy as np

from repro.net import DumbbellConfig
from repro.scenarios import ScenarioSpec, SweepRunner, register_scenario
from repro.scenarios.builders import DumbbellTestbed
from repro.scenarios.spec import JsonDict
from repro.traffic.cbr import CbrSource
from repro.traffic.web import WebTrafficSource

N_FLOWS = 40
LINK_BPS = 15e6
BASE_RTT = 0.045
#: long-lived flows start uniformly over the first this-many seconds.
START_SPREAD = 20.0
BUFFER_PACKETS = 250
#: share of the link the short-lived web TCP uses.
WEB_FRACTION = 0.2
QUEUE_TYPE = "droptail"


@dataclass
class QueueDynamicsResult:
    """One protocol's run: queue samples plus link statistics."""

    protocol: str
    queue_series: List[Tuple[float, int]]
    drop_rate: float
    utilization: float
    mean_queue: float
    queue_std: float


@dataclass
class Fig14Result:
    tcp: QueueDynamicsResult
    tfrc: QueueDynamicsResult


@register_scenario("fig14_queue_dynamics")
def queue_dynamics_scenario(spec: ScenarioSpec) -> JsonDict:
    """One protocol variant, as a sweep cell: every long-lived flow runs
    ``flows.protocol``.

    Spec layout::

        topology: {bandwidth_bps, base_rtt, start_spread}
        flows:    {protocol, n_flows}
        queue:    {buffer_packets, type?}
        extra:    {web_fraction}

    ``queue.type`` is the one optional key: :func:`run` leaves it out (the
    paper's DropTail), a hand-built spec may set ``"red"`` (one of the runs
    ``tests/golden_digests.json`` pins).
    """
    protocol = str(spec.flows["protocol"])
    if protocol not in ("tcp", "tfrc"):
        raise ValueError(
            f"flows.protocol must be 'tcp' or 'tfrc', got {protocol!r}"
        )
    n_flows = int(spec.flows["n_flows"])
    link_bps = float(spec.topology["bandwidth_bps"])
    base_rtt = float(spec.topology["base_rtt"])
    start_spread = float(spec.topology["start_spread"])
    web_fraction = float(spec.extra["web_fraction"])
    duration = spec.duration
    config = DumbbellConfig(
        bandwidth_bps=link_bps,
        delay=0.010,
        queue_type=str(spec.queue.get("type", QUEUE_TYPE)),
        buffer_packets=int(spec.queue["buffer_packets"]),
    )
    bed = DumbbellTestbed(config, spec.seed, sample_queue=True)
    sim, rng, link_monitor = bed.sim, bed.rng, bed.link_monitor

    long_lived = bed.tcp if protocol == "tcp" else bed.tfrc
    for i in range(n_flows):
        flow = long_lived(f"{protocol}-{i}", base_rtt * rng.uniform(0.9, 1.1))
        flow.start(at=rng.uniform(0.0, start_spread))

    # Short-lived background web TCP at ~web_fraction of the link.
    mean_size = 20.0
    arrival_rate = web_fraction * link_bps / 8.0 / (mean_size * 1000)

    def port_pair(flow_id: str):
        return bed.attach(flow_id, base_rtt * rng.uniform(0.9, 1.1))

    web = WebTrafficSource(
        sim, port_pair, rng=bed.stream("web"),
        arrival_rate=arrival_rate, mean_size_packets=mean_size,
    )
    web.start(at=0.0)

    # A small amount of reverse-path traffic: it flows on the reverse link,
    # so attach via the reverse port.
    _, rev_port = bed.attach("rev-cbr-2", base_rtt)
    CbrSource(sim, "rev-cbr-2", rev_port, rate_bps=0.05 * link_bps).start(at=0.0)

    bed.run(duration)

    samples = link_monitor.queue_series(t_min=duration * 0.2)
    depths = np.array([depth for _, depth in samples], dtype=float)
    return asdict(QueueDynamicsResult(
        protocol=protocol,
        queue_series=samples,
        drop_rate=link_monitor.loss_rate(),
        utilization=link_monitor.utilization(duration),
        mean_queue=float(depths.mean()) if depths.size else 0.0,
        queue_std=float(depths.std()) if depths.size else 0.0,
    ))


def run(duration: float, seed: int = 0, **sweep: object) -> Fig14Result:
    """Both variants of the Figure 14 scenario as a two-cell sweep."""
    base = ScenarioSpec(
        scenario="fig14_queue_dynamics",
        duration=float(duration),
        seed=seed,
        topology={
            "bandwidth_bps": LINK_BPS,
            "base_rtt": BASE_RTT,
            "start_spread": START_SPREAD,
        },
        flows={"protocol": "tcp", "n_flows": N_FLOWS},
        queue={"buffer_packets": BUFFER_PACKETS},
        extra={"web_fraction": WEB_FRACTION},
    )
    cells = SweepRunner(
        base,
        {"flows.protocol": ["tcp", "tfrc"]},
        **sweep,
    ).run().complete_cells()
    by_protocol = {}
    for cell in cells:
        # JSON has no tuples: a cached cell's samples come back as lists.
        samples = [tuple(sample) for sample in cell.result["queue_series"]]
        result = QueueDynamicsResult(**{**cell.result, "queue_series": samples})
        by_protocol[result.protocol] = result
    return Fig14Result(tcp=by_protocol["tcp"], tfrc=by_protocol["tfrc"])
