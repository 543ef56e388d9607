"""Scenario builders: the paper's reusable simulation setups.

The experiments layer, the sweep runner, and ad-hoc studies all build
scenarios from this one place:

* :func:`build_mixed_dumbbell` / :func:`run_mixed_dumbbell` -- n TFRC +
  n TCP flows on a dumbbell (Figures 6-10, 14): random base RTTs
  U(80,120) ms, staggered starts U(0,10) s, per the section 4.1.2 footnote.
* :func:`run_single_tfrc_on_lossy_path` -- one TFRC flow on an ideal pipe
  with a programmable loss model (Figures 2, 19, 20, 21).
* :class:`MixedDumbbellResult` -- per-flow arrival series plus monitors.

Two declarative entry points are registered with the scenario registry
(``mixed_dumbbell`` and ``tfrc_lossy_path``) so that sweeps can execute
them from a :class:`~repro.scenarios.spec.ScenarioSpec` alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import TfrcFlow
from repro.net import Dumbbell, DumbbellConfig
from repro.net.monitor import FlowMonitor, LinkMonitor
from repro.net.path import (
    LossyPath,
    LossModel,
    bernoulli_loss,
    periodic_loss,
    scheduled_loss,
)
from repro.scenarios.spec import JsonDict, ScenarioSpec, register_scenario
from repro.sim import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from repro.tcp.flow import TcpFlow
from repro.traffic.onoff import OnOffSource

#: The paper's per-flow base RTT range (section 4.1.2): U(80, 120) ms.
RTT_RANGE = (0.080, 0.120)
#: Staggered start window: U(0, 10) s.
START_RANGE = (0.0, 10.0)


@dataclass
class MixedDumbbellResult:
    """Everything the analysis layer needs from one dumbbell run."""

    sim: Simulator
    dumbbell: Dumbbell
    flow_monitor: FlowMonitor
    link_monitor: LinkMonitor
    tfrc_flows: List[TfrcFlow] = field(default_factory=list)
    tcp_flows: List[TcpFlow] = field(default_factory=list)
    duration: float = 0.0

    @property
    def tfrc_ids(self) -> List[str]:
        return [flow.flow_id for flow in self.tfrc_flows]

    @property
    def tcp_ids(self) -> List[str]:
        return [flow.flow_id for flow in self.tcp_flows]

    def throughput(self, flow_id: str, t_min: float, t_max: float) -> float:
        return self.flow_monitor.throughput_bps(flow_id, t_min, t_max)

    def normalized_throughput(
        self, flow_id: str, t_min: float, t_max: float
    ) -> float:
        """Throughput normalized so 1.0 = a fair share of the bottleneck."""
        n = len(self.tfrc_flows) + len(self.tcp_flows)
        fair = self.dumbbell.config.bandwidth_bps / max(1, n)
        return self.throughput(flow_id, t_min, t_max) / fair


def build_mixed_dumbbell(
    n_tfrc: int,
    n_tcp: int,
    bandwidth_bps: float = 15e6,
    queue_type: str = "red",
    buffer_packets: Optional[int] = None,
    seed: int = 0,
    tcp_variant: str = "sack",
    interpacket_adjustment: bool = True,
    queue_scaling_bandwidth: Optional[float] = None,
    sample_queue: bool = False,
    tracer: Optional["Tracer"] = None,
    ecn: bool = False,
) -> MixedDumbbellResult:
    """Construct (without running) the standard mixed-traffic dumbbell.

    Queue sizing follows the paper's Figure 6 methodology ("we scale the
    queue size with the bandwidth"): the buffer is the paper's 100 packets
    scaled by ``bandwidth / 15 Mb/s`` (at least 5 packets), unless
    ``buffer_packets`` is given.  RED thresholds scale with the buffer.

    ``ecn`` enables marking at a RED bottleneck with ECN-capable TFRC flows.
    """
    if n_tfrc < 0 or n_tcp < 0 or n_tfrc + n_tcp == 0:
        raise ValueError("need at least one flow")
    rng_registry = RngRegistry(seed)
    rng = rng_registry.stream("topology")
    scale_bw = queue_scaling_bandwidth or bandwidth_bps
    if buffer_packets is None:
        buffer_packets = max(5, int(round(100 * scale_bw / 15e6)))
    config = DumbbellConfig(
        bandwidth_bps=bandwidth_bps,
        queue_type=queue_type,
        buffer_packets=buffer_packets,
        red_min_thresh=max(2, buffer_packets // 10),
        red_max_thresh=max(4, buffer_packets // 2),
    )
    sim = Simulator()
    dumbbell = Dumbbell(sim, config, queue_rng=rng_registry.stream("red"))
    if ecn:
        if queue_type != "red":
            raise ValueError("ecn requires a RED bottleneck queue")
        dumbbell.forward_link.queue.ecn = True
    flow_monitor = FlowMonitor(tracer=tracer)
    link_monitor = LinkMonitor(
        sim, dumbbell.forward_link, tracer=tracer, sample_queue=sample_queue
    )
    result = MixedDumbbellResult(
        sim=sim,
        dumbbell=dumbbell,
        flow_monitor=flow_monitor,
        link_monitor=link_monitor,
    )
    staggered_starts: List[Tuple[float, Callable[[], None], tuple]] = []
    for i in range(n_tfrc):
        flow_id = f"tfrc-{i}"
        fwd, rev = dumbbell.attach_flow(flow_id, rng.uniform(*RTT_RANGE))
        flow = TfrcFlow(
            sim,
            flow_id,
            fwd,
            rev,
            on_data=flow_monitor.on_packet,
            interpacket_adjustment=interpacket_adjustment,
            tracer=tracer,
            ecn=ecn,
        )
        staggered_starts.append((rng.uniform(*START_RANGE), flow.start, ()))
        result.tfrc_flows.append(flow)
    for i in range(n_tcp):
        flow_id = f"tcp-{i}"
        fwd, rev = dumbbell.attach_flow(flow_id, rng.uniform(*RTT_RANGE))
        flow = TcpFlow(
            sim,
            flow_id,
            fwd,
            rev,
            variant=tcp_variant,
            on_data=flow_monitor.on_packet,
            tracer=tracer,
        )
        staggered_starts.append((rng.uniform(*START_RANGE), flow.start, ()))
        result.tcp_flows.append(flow)
    # Bulk-seed the staggered flow starts in one O(n) heapify.
    sim.schedule_batch(staggered_starts)
    return result


def run_mixed_dumbbell(duration: float = 90.0, **kwargs) -> MixedDumbbellResult:
    """Build and run the standard scenario for ``duration`` seconds."""
    result = build_mixed_dumbbell(**kwargs)
    result.sim.run(until=duration)
    result.duration = duration
    return result


@dataclass
class SingleTfrcResult:
    """One TFRC flow on a controlled-loss pipe."""

    sim: Simulator
    flow: TfrcFlow
    path: LossyPath
    flow_monitor: FlowMonitor
    duration: float

    def rate_history(self) -> List[Tuple[float, float]]:
        """(time, allowed rate bytes/s) samples from the sender."""
        return list(self.flow.sender.rate_history)


def run_single_tfrc_on_lossy_path(
    loss_model: Optional[LossModel],
    duration: float,
    rtt: float = 0.1,
    bandwidth_bps: Optional[float] = None,
    packet_size: int = 1000,
    probe: Optional[Callable[[Simulator, TfrcFlow], None]] = None,
    probe_interval: float = 0.1,
    **flow_kwargs,
) -> SingleTfrcResult:
    """The protocol-mechanics harness (Figures 2, 19-21).

    One TFRC flow runs over an ideal fixed-delay pipe whose only losses come
    from ``loss_model``.  ``probe(sim, flow)``, if given, is invoked every
    ``probe_interval`` simulated seconds -- figure modules use it to sample
    estimator state mid-run.
    """
    sim = Simulator()
    forward = LossyPath(
        sim, delay=rtt / 2.0, loss_model=loss_model,
        bandwidth_bps=bandwidth_bps, name="fwd",
    )
    reverse = LossyPath(sim, delay=rtt / 2.0, name="rev")
    monitor = FlowMonitor()
    flow = TfrcFlow(
        sim, "tfrc", forward, reverse,
        packet_size=packet_size, on_data=monitor.on_packet, **flow_kwargs,
    )
    flow.start()
    if probe is not None:
        def tick() -> None:
            probe(sim, flow)
            if sim.now < duration:
                sim.schedule_in(probe_interval, tick)

        sim.schedule_in(probe_interval, tick)
    sim.run(until=duration)
    return SingleTfrcResult(
        sim=sim, flow=flow, path=forward, flow_monitor=monitor, duration=duration
    )


# ----------------------------------------------------- internet-path builder


@dataclass(frozen=True)
class PathProfile:
    """Synthetic stand-in for one of the paper's measurement paths.

    A single-bottleneck path (bandwidth, base RTT, buffer, queue type)
    carrying heavy uncontrolled ON/OFF cross traffic, plus per-path TCP
    timer quirks (min RTO, granularity, variance multiplier ``rto_k``) that
    reproduce the sender-stack behaviours the paper reports in section 4.3.
    """

    name: str
    bandwidth_bps: float
    base_rtt: float
    buffer_packets: int
    cross_sources: int
    cross_peak_bps: float
    tcp_min_rto: float
    tcp_granularity: float
    tcp_rto_k: float = 4.0
    queue_type: str = "droptail"

    def to_dict(self) -> JsonDict:
        """Plain-dict form, usable as a spec's ``topology`` group."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PathProfile":
        return cls(**dict(data))


@dataclass
class InternetPathRun:
    """One synthetic internet-path run: monitors plus the attached flows."""

    sim: Simulator
    profile: PathProfile
    dumbbell: Dumbbell
    flow_monitor: FlowMonitor
    link_monitor: Optional[LinkMonitor] = None
    tcp_ids: List[str] = field(default_factory=list)
    tfrc_flow: Optional[TfrcFlow] = None
    duration: float = 0.0


def _build_path_bottleneck(
    profile: PathProfile, registry: RngRegistry, sim: Simulator
) -> Dumbbell:
    """The shared single-bottleneck topology of the synthetic paths."""
    config = DumbbellConfig(
        bandwidth_bps=profile.bandwidth_bps,
        delay=profile.base_rtt / 4.0,
        queue_type=profile.queue_type,
        buffer_packets=profile.buffer_packets,
    )
    return Dumbbell(sim, config, queue_rng=registry.stream("red"))


def run_internet_path(
    profile: PathProfile,
    n_tcp: int = 3,
    duration: float = 120.0,
    interpacket_adjustment: bool = True,
    seed: int = 0,
) -> InternetPathRun:
    """Run ``n_tcp`` TCP flows + 1 TFRC flow + cross traffic over one path.

    The topology half of the paper's section 4.3 methodology (Figures
    15-18): construction order (and hence RNG draw order) is fixed, so one
    ``(profile, seed)`` pair always produces the same run.
    """
    registry = RngRegistry(seed)
    rng = registry.stream("topology")
    sim = Simulator()
    dumbbell = _build_path_bottleneck(profile, registry, sim)
    flow_monitor = FlowMonitor()
    link_monitor = LinkMonitor(sim, dumbbell.forward_link, sample_queue=False)

    run = InternetPathRun(
        sim=sim,
        profile=profile,
        dumbbell=dumbbell,
        flow_monitor=flow_monitor,
        link_monitor=link_monitor,
        duration=duration,
    )
    for i in range(n_tcp):
        flow_id = f"tcp-{i}"
        run.tcp_ids.append(flow_id)
        fwd, rev = dumbbell.attach_flow(
            flow_id, profile.base_rtt * rng.uniform(0.95, 1.05)
        )
        TcpFlow(
            sim, flow_id, fwd, rev, variant="sack",
            on_data=flow_monitor.on_packet,
            min_rto=profile.tcp_min_rto,
            rto_granularity=profile.tcp_granularity,
            rto_k=profile.tcp_rto_k,
        ).start(at=rng.uniform(0.0, 2.0))
    fwd, rev = dumbbell.attach_flow("tfrc", profile.base_rtt)
    run.tfrc_flow = TfrcFlow(
        sim, "tfrc", fwd, rev, on_data=flow_monitor.on_packet,
        interpacket_adjustment=interpacket_adjustment,
    )
    run.tfrc_flow.start(at=rng.uniform(0.0, 2.0))

    cross_rng = registry.stream("cross")
    for i in range(profile.cross_sources):
        flow_id = f"cross-{i}"
        port, _ = dumbbell.attach_flow(
            flow_id, profile.base_rtt * rng.uniform(0.8, 1.2)
        )
        OnOffSource(
            sim, flow_id, port, rng=cross_rng,
            peak_rate_bps=profile.cross_peak_bps,
        ).start(at=rng.uniform(0.0, 5.0))

    sim.run(until=duration)
    return run


def run_tfrc_probe_path(
    profile: PathProfile,
    duration: float = 150.0,
    seed: int = 0,
) -> InternetPathRun:
    """One TFRC probe flow over a synthetic path with ON/OFF cross traffic.

    The predictor-scoring harness (Figure 18): the monitored flow starts at
    t=0 and its receiver-side loss-interval history is the product; cross
    sources provide the bursty, non-stationary loss process.
    """
    registry = RngRegistry(seed)
    rng = registry.stream("topology")
    sim = Simulator()
    dumbbell = _build_path_bottleneck(profile, registry, sim)
    monitor = FlowMonitor()
    fwd, rev = dumbbell.attach_flow("tfrc", profile.base_rtt)
    flow = TfrcFlow(sim, "tfrc", fwd, rev, on_data=monitor.on_packet)
    flow.start()
    cross_rng = registry.stream("cross")
    for i in range(profile.cross_sources):
        flow_id = f"cross-{i}"
        port, _ = dumbbell.attach_flow(flow_id, profile.base_rtt)
        OnOffSource(
            sim, flow_id, port, rng=cross_rng,
            peak_rate_bps=profile.cross_peak_bps,
        ).start(at=rng.uniform(0.0, 5.0))
    sim.run(until=duration)
    return InternetPathRun(
        sim=sim,
        profile=profile,
        dumbbell=dumbbell,
        flow_monitor=monitor,
        tfrc_flow=flow,
        duration=duration,
    )


def steady_state_window(duration: float, fraction: float = 0.5) -> Tuple[float, float]:
    """Measurement window skipping the warm-up: the last ``fraction`` of the
    run, mirroring the paper's "last 60 seconds" / "last 100 seconds" usage."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    return duration * (1.0 - fraction), duration


# ------------------------------------------------------ declarative entry points


def _never_drop(packet, now) -> bool:
    return False


def loss_model_from_spec(
    loss: Dict[str, object], rng: Optional[np.random.Generator] = None
) -> Optional[LossModel]:
    """Instantiate a loss model from a spec's ``loss`` mapping.

    Supported: ``{}`` / ``{"model": "none"}`` (lossless),
    ``{"model": "bernoulli", "probability": p}``,
    ``{"model": "periodic", "period": n, "offset": k}``, and the
    time-phased step-loss form the appendix figures use::

        {"model": "scheduled",
         "phases": [{"at": 0.0, "model": "periodic", "period": 100},
                    {"at": 10.0, "model": "none"}]}

    A ``scheduled`` model switches to each phase's inner model once its
    ``at`` time passes (``"none"`` phases drop nothing), which expresses
    Figure 2's 1% -> 10% -> 0.5% pattern and Figures 19-21's loss steps as
    plain spec data.
    """
    model = str(loss.get("model", "none"))
    if model in ("none", ""):
        return None
    if model == "bernoulli":
        if rng is None:
            raise ValueError("bernoulli loss model needs an rng")
        return bernoulli_loss(float(loss.get("probability", 0.01)), rng)
    if model == "periodic":
        return periodic_loss(
            int(loss.get("period", 100)), offset=int(loss.get("offset", 0))
        )
    if model == "scheduled":
        phases = list(loss.get("phases", []))
        if not phases:
            raise ValueError("scheduled loss model needs at least one phase")
        schedule: List[Tuple[float, LossModel]] = []
        for phase in phases:
            inner = {k: v for k, v in dict(phase).items() if k != "at"}
            schedule.append(
                (
                    float(dict(phase).get("at", 0.0)),
                    loss_model_from_spec(inner, rng) or _never_drop,
                )
            )
        return scheduled_loss(schedule)
    raise ValueError(f"unknown loss model {model!r}")


def periodic_phase(at: float, period: int, offset: int = 0) -> JsonDict:
    """One ``scheduled`` phase dropping every ``period``-th packet."""
    return {"at": float(at), "model": "periodic",
            "period": int(period), "offset": int(offset)}


def lossless_phase(at: float) -> JsonDict:
    """One ``scheduled`` phase dropping nothing (loss switched off)."""
    return {"at": float(at), "model": "none"}


@register_scenario("mixed_dumbbell")
def mixed_dumbbell_scenario(spec: ScenarioSpec) -> JsonDict:
    """Declarative mixed dumbbell: summary fairness metrics for one cell.

    Spec layout::

        topology: {bandwidth_bps, queue_scaling_bandwidth?}
        flows:    {n_tfrc, n_tcp, tcp_variant?, interpacket_adjustment?}
        queue:    {type, buffer_packets?}
        extra:    {measure_fraction?}
    """
    result = run_mixed_dumbbell(
        duration=spec.duration,
        n_tfrc=int(spec.flows.get("n_tfrc", 1)),
        n_tcp=int(spec.flows.get("n_tcp", 1)),
        bandwidth_bps=float(spec.topology.get("bandwidth_bps", 15e6)),
        queue_type=str(spec.queue.get("type", "red")),
        buffer_packets=spec.queue.get("buffer_packets"),
        seed=spec.seed,
        tcp_variant=str(spec.flows.get("tcp_variant", "sack")),
        interpacket_adjustment=bool(
            spec.flows.get("interpacket_adjustment", True)
        ),
        queue_scaling_bandwidth=spec.topology.get("queue_scaling_bandwidth"),
    )
    t0, t1 = steady_state_window(
        spec.duration, float(spec.extra.get("measure_fraction", 0.5))
    )
    return {
        "tcp_normalized": [
            result.normalized_throughput(fid, t0, t1) for fid in result.tcp_ids
        ],
        "tfrc_normalized": [
            result.normalized_throughput(fid, t0, t1) for fid in result.tfrc_ids
        ],
        "loss_rate": result.link_monitor.loss_rate(),
        "utilization_seconds": result.dumbbell.forward_link.utilization_seconds,
    }


@register_scenario("tfrc_lossy_path")
def tfrc_lossy_path_scenario(spec: ScenarioSpec) -> JsonDict:
    """Declarative single-TFRC-on-lossy-path: throughput and loss summary.

    Spec layout::

        topology: {rtt?, bandwidth_bps?, packet_size?}
        loss:     {model, ...} (see :func:`loss_model_from_spec`)
    """
    rng = RngRegistry(spec.seed).stream("loss")
    result = run_single_tfrc_on_lossy_path(
        loss_model=loss_model_from_spec(dict(spec.loss), rng),
        duration=spec.duration,
        rtt=float(spec.topology.get("rtt", 0.1)),
        bandwidth_bps=spec.topology.get("bandwidth_bps"),
        packet_size=int(spec.topology.get("packet_size", 1000)),
    )
    t0, t1 = steady_state_window(spec.duration)
    return {
        "throughput_bps": result.flow_monitor.throughput_bps("tfrc", t0, t1),
        "packets_received": result.flow.receiver.detector.packets_received,
        "loss_events": len(result.flow.receiver.detector.events),
    }
