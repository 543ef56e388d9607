"""Figures 11-13: performance with ON/OFF background traffic.

Section 4.1.3's scenario: 50-150 Pareto ON/OFF UDP sources (mean ON 1 s,
mean OFF 2 s, 500 kb/s when ON) share the 15 Mb/s bottleneck with two
monitored long-duration flows, one TCP and one TFRC.

* Figure 11: mean bottleneck loss rate vs the number of sources.
* Figure 12: TFRC/TCP equivalence ratio vs timescale, per source count.
* Figure 13: CoV of the two monitored flows vs timescale, per source count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Sequence

from repro.analysis.cov import coefficient_of_variation
from repro.scenarios import ScenarioSpec, SweepRunner, register_scenario
from repro.scenarios.builders import DumbbellTestbed
from repro.scenarios.spec import JsonDict
from repro.analysis.equivalence import equivalence_ratio
from repro.net import DumbbellConfig
from repro.traffic.onoff import OnOffSource

PAPER_SOURCE_COUNTS = (50, 60, 100, 130, 150)
PAPER_TIMESCALES = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
DURATION = 200.0
#: seconds left out of every measurement at the start of the run.
WARMUP = 20.0
LINK_BPS = 15e6
#: the result fields keyed by timescale; a cell's JSON keys them by
#: ``repr(tau)``.
TAU_MAPS = ("equivalence_by_tau", "cov_tcp_by_tau", "cov_tfrc_by_tau")


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
    duration: float = DURATION,
    warmup: float = WARMUP,
    timescales: Sequence[float] = PAPER_TIMESCALES,
    link_bps: float = LINK_BPS,
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
    result.tcp_throughput_bps = flow_monitor.throughput_bps("tcp-mon", t0, t1)
    result.tfrc_throughput_bps = flow_monitor.throughput_bps("tfrc-mon", t0, t1)
    for tau in timescales:
        series_tcp = flow_monitor.rate_series("tcp-mon", t0, t1, tau)
        series_tfrc = flow_monitor.rate_series("tfrc-mon", t0, t1, tau)
        result.equivalence_by_tau[tau] = equivalence_ratio(series_tfrc, series_tcp)
        result.cov_tcp_by_tau[tau] = coefficient_of_variation(series_tcp)
        result.cov_tfrc_by_tau[tau] = coefficient_of_variation(series_tfrc)
    return result


@register_scenario("fig11_onoff")
def onoff_scenario(spec: ScenarioSpec) -> JsonDict:
    """One ON/OFF background-traffic configuration as a sweep cell.

    Spec layout::

        topology: {bandwidth_bps}
        flows:    {sources}
        extra:    {warmup, timescales}
    """
    data = asdict(run_one(
        n_sources=int(spec.flows["sources"]),
        duration=spec.duration,
        warmup=float(spec.extra["warmup"]),
        timescales=[float(t) for t in spec.extra["timescales"]],
        link_bps=float(spec.topology["bandwidth_bps"]),
        seed=spec.seed,
    ))
    for name in TAU_MAPS:
        data[name] = {repr(t): v for t, v in data[name].items()}
    return data


def run(
    source_counts: Sequence[int] = PAPER_SOURCE_COUNTS,
    duration: float = DURATION,
    seed: int = 0,
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
        topology={"bandwidth_bps": LINK_BPS},
        extra={"warmup": WARMUP, "timescales": list(PAPER_TIMESCALES)},
    )
    cells = SweepRunner(
        base,
        {"flows.sources": [int(count) for count in source_counts]},
        **sweep,
    ).run().complete_cells()
    result = Fig11Result()
    for cell in cells:
        data = dict(cell.result)
        for name in TAU_MAPS:
            data[name] = {float(t): v for t, v in data[name].items()}
        result.runs.append(OnOffRunResult(**data))
    return result
