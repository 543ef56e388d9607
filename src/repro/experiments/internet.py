"""Synthetic Internet paths for Figures 15-17 (substitution).

The paper's section 4.3 runs its userspace TFRC implementation over real
Internet paths (UCL->ACIRI, Mannheim, UMass with Linux and Solaris senders,
Nokia Boston) and Dummynet.  Real transcontinental paths are unavailable
here, so each named path is synthesized as a bottleneck with heavy
uncontrolled cross traffic and per-path quirks chosen to reproduce the
behaviours the paper reports:

* **ucl** -- well-behaved transatlantic path: 1.5 Mb/s bottleneck, ~90 ms
  RTT, moderate cross traffic.  (Figure 15's 3 TCP + 1 TFRC run.)
* **mannheim** -- similar, shorter RTT, lighter load.
* **umass_linux** -- good modern TCP stack: fine timer granularity.
* **umass_solaris** -- the paper's pathological case: "a very aggressive TCP
  retransmission timeout ... frequently retransmits unnecessarily".
  Modelled with a tiny min-RTO and coarse variance handling (rto_k = 1), so
  the competing TCP hurts itself, and TFRC "out-competes" it -- the paper's
  observed unfairness with a *normal* TFRC trace.
* **nokia** -- heavily loaded T1 (1.5 Mb/s) with a shallow DropTail buffer
  close to the source: the phase-effect case that motivated the interpacket
  spacing adjustment.

The topology half (profiles, flow attachment, cross traffic) lives in
:mod:`repro.scenarios.builders` (:class:`PathProfile`,
:func:`run_internet_path`); this module holds the paper's named profiles
and the measurement/analysis layer.  Each path is one registered
``internet_path`` scenario cell -- the profile itself is the spec's
``topology`` group -- so multi-path runs are
:class:`~repro.scenarios.sweep.SweepRunner` sweeps (``--parallel N``
simulates paths concurrently, ``--cache`` re-uses them).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.cov import coefficient_of_variation
from repro.analysis.equivalence import equivalence_ratio
from repro.experiments.timescales import TAU_MAPS, tau_maps_from_json, tau_maps_to_json
from repro.scenarios import ScenarioSpec, SweepRunner, register_scenario
from repro.scenarios.builders import PathProfile, run_internet_path
from repro.scenarios.spec import JsonDict

__all__ = [
    "PATHS",
    "PAPER_PATHS",
    "PathProfile",
    "InternetRunResult",
    "run_all",
]

PATHS: Dict[str, PathProfile] = {
    "ucl": PathProfile(
        name="ucl", bandwidth_bps=1.5e6, base_rtt=0.090, buffer_packets=40,
        cross_sources=4, cross_peak_bps=200e3,
        tcp_min_rto=1.0, tcp_granularity=0.5,
    ),
    "mannheim": PathProfile(
        name="mannheim", bandwidth_bps=2.0e6, base_rtt=0.040, buffer_packets=50,
        cross_sources=3, cross_peak_bps=150e3,
        tcp_min_rto=0.4, tcp_granularity=0.2,
    ),
    "umass_linux": PathProfile(
        name="umass_linux", bandwidth_bps=1.5e6, base_rtt=0.070, buffer_packets=40,
        cross_sources=4, cross_peak_bps=200e3,
        tcp_min_rto=0.2, tcp_granularity=0.01,
    ),
    "umass_solaris": PathProfile(
        name="umass_solaris", bandwidth_bps=1.5e6, base_rtt=0.070, buffer_packets=40,
        cross_sources=4, cross_peak_bps=200e3,
        # Aggressive timer: tiny floor and *no* variance margin (RTO ~=
        # SRTT), so queueing jitter triggers spurious timeouts that hurt
        # the TCP itself (Paxson 1997, cited by the paper for this path).
        tcp_min_rto=0.05, tcp_granularity=0.01, tcp_rto_k=0.0,
    ),
    "nokia": PathProfile(
        name="nokia", bandwidth_bps=1.5e6, base_rtt=0.060, buffer_packets=25,
        cross_sources=5, cross_peak_bps=250e3,
        tcp_min_rto=0.5, tcp_granularity=0.5,
    ),
    # The paper's first "less fair" observation (section 4.3): when the
    # network is overloaded enough that flows get close to one packet per
    # RTT, TFRC can take significantly more than its share from a
    # conservative (coarse-RTO) TCP.  This harsher variant reproduces that
    # regime; it is excluded from the Figure 16/17 path set.
    "nokia_overloaded": PathProfile(
        name="nokia_overloaded", bandwidth_bps=1.5e6, base_rtt=0.060,
        buffer_packets=8, cross_sources=6, cross_peak_bps=300e3,
        tcp_min_rto=0.5, tcp_granularity=0.5,
    ),
}

#: The five paths of Figures 16/17.
PAPER_PATHS = ("ucl", "mannheim", "umass_linux", "umass_solaris", "nokia")
#: TCP flows beside the one TFRC flow on every path (Figure 15: 3 + 1).
N_TCP = 3
#: seconds left out of every measurement at the start of the run.
WARMUP = 20.0
TIMESCALES = (1.0, 2.0, 5.0, 10.0, 20.0)
#: the sampling interval of the kept rate traces, seconds.
TRACE_TAU = 1.0


@dataclass
class InternetRunResult:
    """One path's run: monitored TCP vs TFRC measures."""

    path: str
    loss_rate: float
    tcp_throughputs_bps: List[float]
    tfrc_throughput_bps: float
    equivalence_by_tau: Dict[float, float] = field(default_factory=dict)
    cov_tcp_by_tau: Dict[float, float] = field(default_factory=dict)
    cov_tfrc_by_tau: Dict[float, float] = field(default_factory=dict)
    tfrc_trace: List[float] = field(default_factory=list)
    tcp_traces: List[List[float]] = field(default_factory=list)


@register_scenario("internet_path")
def internet_path_scenario(spec: ScenarioSpec) -> JsonDict:
    """One synthetic path run as a sweep cell.

    Spec layout::

        topology: the full :class:`PathProfile` as plain data
        flows:    {n_tcp, interpacket_adjustment}
        extra:    {warmup, timescales, trace_tau}
    """
    profile = PathProfile.from_dict(dict(spec.topology))
    trace_tau = float(spec.extra["trace_tau"])
    run = run_internet_path(
        profile,
        n_tcp=int(spec.flows["n_tcp"]),
        duration=spec.duration,
        interpacket_adjustment=bool(spec.flows["interpacket_adjustment"]),
        seed=spec.seed,
    )
    flow_monitor = run.flow_monitor
    t0, t1 = float(spec.extra["warmup"]), spec.duration

    def rates(fid: str, tau: float):
        return flow_monitor.rate_series(fid, t0, t1, tau)

    result = InternetRunResult(
        path=profile.name,
        loss_rate=run.link_monitor.loss_rate(),
        tcp_throughputs_bps=[
            flow_monitor.throughput_bps(fid, t0, t1) for fid in run.tcp_ids
        ],
        tfrc_throughput_bps=flow_monitor.throughput_bps("tfrc", t0, t1),
        tfrc_trace=rates("tfrc", trace_tau).tolist(),
        tcp_traces=[rates(fid, trace_tau).tolist() for fid in run.tcp_ids],
    )
    timescales = [float(t) for t in spec.extra["timescales"]]
    for tau in [t for t in timescales if t <= (t1 - t0) / 2]:
        series_tfrc = rates("tfrc", tau)
        covs = []
        ratios = []
        for fid in run.tcp_ids:
            series_tcp = rates(fid, tau)
            ratios.append(equivalence_ratio(series_tfrc, series_tcp))
            covs.append(coefficient_of_variation(series_tcp))
        result.equivalence_by_tau[tau] = float(np.nanmean(ratios))
        result.cov_tcp_by_tau[tau] = float(np.mean(covs))
        result.cov_tfrc_by_tau[tau] = float(
            coefficient_of_variation(series_tfrc)
        )
    return tau_maps_to_json(asdict(result), TAU_MAPS)


def run_all(
    duration: float,
    paths: Sequence[str] = PAPER_PATHS,
    seed: int = 0,
    **sweep: object,
) -> Dict[str, InternetRunResult]:
    """Run N_TCP TCP flows + 1 TFRC flow + cross traffic over each named
    path, as one sweep over the profiles: Figure 15 is ``("ucl",)``,
    Figures 16/17 the five :data:`PAPER_PATHS`."""
    base = ScenarioSpec(
        scenario="internet_path",
        duration=float(duration),
        seed=seed,
        topology=PATHS[paths[0]].to_dict(),
        flows={"n_tcp": N_TCP, "interpacket_adjustment": True},
        extra={
            "warmup": WARMUP,
            "timescales": list(TIMESCALES),
            "trace_tau": TRACE_TAU,
        },
    )
    cells = SweepRunner(
        base,
        {"topology": [PATHS[name].to_dict() for name in paths]},
        **sweep,
    ).run().complete_cells()
    results: Dict[str, InternetRunResult] = {}
    for name, cell in zip(paths, cells):
        results[name] = InternetRunResult(
            **tau_maps_from_json(cell.result, TAU_MAPS)
        )
    return results
