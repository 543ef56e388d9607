"""Figures 3 and 4: TFRC oscillations over a Dummynet pipe.

The paper runs these through Rizzo's Dummynet: one rate-limited pipe with
a small DropTail buffer.  Here the pipe is a :class:`~repro.net.link.Link`
with a :class:`~repro.net.queues.DropTailQueue` forward and a lossless
fixed-delay :class:`~repro.net.path.LossyPath` back.

One TFRC flow crosses the pipe, whose buffer is swept over
{2, 8, 32, 64} packets (the paper's axis is 2..64).  With the RTT EWMA
weight at a small value and **without** the interpacket-spacing adjustment,
the flow overshoots the link and oscillates (Figure 3); enabling the
``sqrt(R0)/M`` adjustment of section 3.4 damps the oscillations (Figure 4).

The measured quantity is the flow's arrival rate after the bottleneck: the
``FlowMonitor`` bins delivered bytes into ``TAU`` s intervals (KB/s), not
the sender's allowed rate.  The bench compares the oscillation amplitude
(CoV of that rate in steady state) with and without the adjustment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.cov import coefficient_of_variation
from repro.scenarios import ScenarioSpec, SweepRunner, Testbed, register_scenario
from repro.scenarios.spec import JsonDict
from repro.core import TfrcFlow
from repro.net.link import Link
from repro.net.path import LossyPath
from repro.net.queues import DropTailQueue
from repro.sim.engine import Simulator

BANDWIDTH_BPS = 2e6
DELAY = 0.05
RTT_EWMA_WEIGHT = 0.05
#: the send-rate sampling interval, seconds.
TAU = 0.5


@dataclass
class Fig03Result:
    """Per-buffer-size send-rate series and their steady-state CoV."""

    buffer_sizes: List[int]
    rate_series: Dict[int, List[float]] = field(default_factory=dict)
    cov_by_buffer: Dict[int, float] = field(default_factory=dict)
    mean_rate_by_buffer: Dict[int, float] = field(default_factory=dict)


def dummynet_pipe(
    sim: Simulator, bandwidth_bps: float, delay: float, buffer_packets: int
) -> Tuple[Link, LossyPath]:
    """The pipe's two ports: a rate limit with a finite DropTail buffer
    forward, a fixed-delay lossless return path (feedback never congests
    it) back."""
    forward = Link(
        sim, bandwidth_bps, delay, DropTailQueue(buffer_packets), name="pipe"
    )
    return forward, LossyPath(sim, delay)


@register_scenario("fig03_pipe")
def pipe_scenario(spec: ScenarioSpec) -> JsonDict:
    """One pipe run, as a sweep cell: the delivered-rate series (KB/s)
    after slow start, its CoV and its mean.

    Spec layout::

        topology: {bandwidth_bps, delay}
        flows:    {interpacket_adjustment}
        queue:    {buffer_packets}
        extra:    {rtt_ewma_weight, tau}
    """
    duration = spec.duration
    tau = float(spec.extra["tau"])
    bed = Testbed()
    forward, reverse = dummynet_pipe(
        bed.sim,
        float(spec.topology["bandwidth_bps"]),
        float(spec.topology["delay"]),
        int(spec.queue["buffer_packets"]),
    )
    bed.links.append(forward)
    bed.paths.append(reverse)
    flow = TfrcFlow(
        bed.sim,
        "tfrc",
        forward,
        reverse,
        on_data=bed.flow_monitor.on_packet,
        rtt_ewma_weight=float(spec.extra["rtt_ewma_weight"]),
        interpacket_adjustment=bool(spec.flows["interpacket_adjustment"]),
    )
    flow.start()
    bed.run(duration)
    t0 = duration * 0.3  # skip slow start
    series = bed.flow_monitor.rate_series("tfrc", t0, duration, tau) / 1024.0
    kb = series.tolist()
    mean = sum(kb) / len(kb) if kb else 0.0
    return {"series": kb, "cov": coefficient_of_variation(kb), "mean": mean}


def run(
    buffer_sizes: Tuple[int, ...],
    duration: float,
    interpacket_adjustment: bool = False,
    rtt_ewma_weight: float = RTT_EWMA_WEIGHT,
    **sweep: object,
) -> Fig03Result:
    """Sweep buffer sizes; ``interpacket_adjustment=True`` gives Figure 4.

    The buffer axis runs through the sweep runner, so ``parallel``/
    ``cache_dir`` fan out / re-use the per-buffer pipe simulations.
    """
    base = ScenarioSpec(
        scenario="fig03_pipe",
        duration=duration,
        flows={"interpacket_adjustment": bool(interpacket_adjustment)},
        topology={"bandwidth_bps": BANDWIDTH_BPS, "delay": DELAY},
        extra={"rtt_ewma_weight": float(rtt_ewma_weight), "tau": TAU},
    )
    cells = SweepRunner(
        base,
        {"queue.buffer_packets": [int(b) for b in buffer_sizes]},
        **sweep,
    ).run().complete_cells()
    result = Fig03Result(buffer_sizes=list(buffer_sizes))
    for buffer_packets, cell in zip(buffer_sizes, cells):
        result.rate_series[buffer_packets] = list(cell.result["series"])
        result.cov_by_buffer[buffer_packets] = float(cell.result["cov"])
        result.mean_rate_by_buffer[buffer_packets] = float(cell.result["mean"])
    return result


def run_both(
    buffer_sizes: Tuple[int, ...], duration: float, **sweep: object
) -> Tuple[Fig03Result, Fig03Result]:
    """Figure 3's sweep, then Figure 4's: the same buffers and duration
    without and with the interpacket adjustment."""
    plain = run(buffer_sizes, duration, False, **sweep)
    return plain, run(buffer_sizes, duration, True, **sweep)
