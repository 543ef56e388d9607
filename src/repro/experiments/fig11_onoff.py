"""Figures 11-13: performance with ON/OFF background traffic.

Section 4.1.3's scenario: 50-150 Pareto ON/OFF UDP sources (mean ON 1 s,
mean OFF 2 s, 500 kb/s when ON) share the 15 Mb/s bottleneck with two
monitored long-duration flows, one TCP and one TFRC.

* Figure 11: mean bottleneck loss rate vs the number of sources.
* Figure 12: TFRC/TCP equivalence ratio vs timescale, per source count.
* Figure 13: CoV of the two monitored flows vs timescale, per source count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.cov import coefficient_of_variation
from repro.scenarios import ScenarioSpec, SweepRunner, register_scenario
from repro.scenarios.builders import DumbbellTestbed
from repro.scenarios.spec import JsonDict
from repro.analysis.equivalence import equivalence_ratio
from repro.analysis.timeseries import arrivals_to_rate_series
from repro.net import DumbbellConfig
from repro.traffic.onoff import OnOffSource

PAPER_SOURCE_COUNTS = (50, 60, 100, 130, 150)
PAPER_TIMESCALES = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


@dataclass
class OnOffRunResult:
    """One source-count configuration."""

    sources: int
    loss_rate: float
    equivalence_by_tau: Dict[float, float] = field(default_factory=dict)
    cov_tcp_by_tau: Dict[float, float] = field(default_factory=dict)
    cov_tfrc_by_tau: Dict[float, float] = field(default_factory=dict)
    tcp_throughput_bps: float = 0.0
    tfrc_throughput_bps: float = 0.0


@dataclass
class Fig11Result:
    runs: List[OnOffRunResult] = field(default_factory=list)


def run_one(
    n_sources: int,
    duration: float = 200.0,
    warmup: float = 20.0,
    timescales: Sequence[float] = PAPER_TIMESCALES,
    link_bps: float = 15e6,
    seed: int = 0,
    tracer=None,
) -> OnOffRunResult:
    """One configuration: n ON/OFF sources + 1 TCP + 1 TFRC monitored."""
    config = DumbbellConfig(bandwidth_bps=link_bps, queue_type="red")
    bed = DumbbellTestbed(config, seed, tracer)
    topo_rng = bed.rng
    bed.tcp("tcp-mon", topo_rng.uniform(0.08, 0.12)).start(at=0.1)
    bed.tfrc("tfrc-mon", topo_rng.uniform(0.08, 0.12)).start(at=0.2)

    onoff_rng = bed.stream("onoff")
    for i in range(n_sources):
        flow_id = f"onoff-{i}"
        port, _ = bed.attach(flow_id, topo_rng.uniform(0.08, 0.12))
        source = OnOffSource(bed.sim, flow_id, port, rng=onoff_rng)
        source.start(at=float(topo_rng.uniform(0.0, 5.0)))
    bed.run(duration)
    flow_monitor = bed.flow_monitor

    timescales = [t for t in timescales if t <= (duration - warmup) / 2]
    result = OnOffRunResult(
        sources=n_sources, loss_rate=bed.link_monitor.loss_rate()
    )
    t0, t1 = warmup, duration
    tcp_arrivals = flow_monitor.arrivals.get("tcp-mon", [])
    tfrc_arrivals = flow_monitor.arrivals.get("tfrc-mon", [])
    result.tcp_throughput_bps = flow_monitor.throughput_bps("tcp-mon", t0, t1)
    result.tfrc_throughput_bps = flow_monitor.throughput_bps("tfrc-mon", t0, t1)
    for tau in timescales:
        series_tcp = arrivals_to_rate_series(tcp_arrivals, t0, t1, tau)
        series_tfrc = arrivals_to_rate_series(tfrc_arrivals, t0, t1, tau)
        result.equivalence_by_tau[tau] = equivalence_ratio(series_tfrc, series_tcp)
        result.cov_tcp_by_tau[tau] = coefficient_of_variation(series_tcp)
        result.cov_tfrc_by_tau[tau] = coefficient_of_variation(series_tfrc)
    return result


@register_scenario("fig11_onoff")
def onoff_scenario(spec: ScenarioSpec) -> JsonDict:
    """One ON/OFF background-traffic configuration as a sweep cell."""
    run_result = run_one(
        n_sources=int(spec.flows["sources"]),
        duration=spec.duration,
        warmup=float(spec.extra.get("warmup", 20.0)),
        timescales=[float(t) for t in spec.extra["timescales"]],
        link_bps=float(spec.topology.get("bandwidth_bps", 15e6)),
        seed=spec.seed,
    )
    return {
        "sources": run_result.sources,
        "loss_rate": run_result.loss_rate,
        "equivalence_by_tau": {
            repr(t): v for t, v in run_result.equivalence_by_tau.items()
        },
        "cov_tcp_by_tau": {
            repr(t): v for t, v in run_result.cov_tcp_by_tau.items()
        },
        "cov_tfrc_by_tau": {
            repr(t): v for t, v in run_result.cov_tfrc_by_tau.items()
        },
        "tcp_throughput_bps": run_result.tcp_throughput_bps,
        "tfrc_throughput_bps": run_result.tfrc_throughput_bps,
    }


def run(
    source_counts: Sequence[int] = PAPER_SOURCE_COUNTS,
    duration: float = 200.0,
    seed: int = 0,
    warmup: float = 20.0,
    timescales: Sequence[float] = PAPER_TIMESCALES,
    link_bps: float = 15e6,
    **sweep: object,
) -> Fig11Result:
    """Sweep the number of ON/OFF sources (paper: 5000 s; default reduced).

    Each source count is one sweep cell; ``parallel``/``cache_dir`` fan out
    and re-use them.
    """
    base = ScenarioSpec(
        scenario="fig11_onoff",
        duration=duration,
        seed=seed,
        topology={"bandwidth_bps": float(link_bps)},
        extra={
            "warmup": float(warmup),
            "timescales": [float(t) for t in timescales],
        },
    )
    cells = SweepRunner(
        base,
        {"flows.sources": [int(count) for count in source_counts]},
        **sweep,
    ).run().complete_cells()
    result = Fig11Result()
    for cell in cells:
        data = cell.result
        result.runs.append(
            OnOffRunResult(
                sources=int(data["sources"]),
                loss_rate=float(data["loss_rate"]),
                equivalence_by_tau={
                    float(t): v for t, v in data["equivalence_by_tau"].items()
                },
                cov_tcp_by_tau={
                    float(t): v for t, v in data["cov_tcp_by_tau"].items()
                },
                cov_tfrc_by_tau={
                    float(t): v for t, v in data["cov_tfrc_by_tau"].items()
                },
                tcp_throughput_bps=float(data["tcp_throughput_bps"]),
                tfrc_throughput_bps=float(data["tfrc_throughput_bps"]),
            )
        )
    return result
