"""Scenario builders: the paper's reusable simulation setups.

The experiments layer, the sweep runner, and ad-hoc studies all build
scenarios from this one place:

* :class:`Testbed` / :class:`DumbbellTestbed` -- the seeded simulator, RNG
  streams, dumbbell and monitors every packet figure is assembled on, and
  the one ``run`` they all go through (it ends with a link-conservation
  check, a dumbbell's also with a delivered-packet check per flow).  The
  dumbbell builders return the testbed itself.
* :func:`build_mixed_dumbbell` / :func:`run_mixed_dumbbell` -- n TFRC +
  n TCP flows on a dumbbell (Figures 6-10): random base RTTs
  U(80,120) ms, staggered starts U(0,10) s, per the section 4.1.2 footnote.
* :func:`run_internet_path` / :func:`run_tfrc_probe_path` -- the synthetic
  measurement paths with ON/OFF cross traffic (Figures 15-18).
* :func:`run_single_tfrc_on_lossy_path` -- one TFRC flow on an ideal pipe
  with a programmable loss model (Figures 2, 19, 20, 21).

Two declarative entry points are registered with the scenario registry
(``mixed_dumbbell`` and ``tfrc_lossy_path``) so that sweeps can execute
them from a :class:`~repro.scenarios.spec.ScenarioSpec` alone.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core import TfrcFlow
from repro.net import Dumbbell, DumbbellConfig, Link, REDQueue
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
from repro.sim.engine import SimulationError
from repro.sim.rng import BlockDraws, RngRegistry
from repro.sim.trace import Tracer
from repro.tcp.flow import TcpFlow
from repro.traffic.onoff import OnOffSource

#: The paper's per-flow base RTT range (section 4.1.2): U(80, 120) ms.
RTT_RANGE = (0.080, 0.120)
#: Staggered start window: U(0, 10) s.
START_RANGE = (0.0, 10.0)


class Testbed:
    """One seeded simulation: the seed's named RNG streams (``stream(name)``,
    see :class:`RngRegistry`), the simulator, the flow monitor -- and the
    only place a scene's simulator is made and run.  A scene appends each
    queued :class:`Link` it builds to ``links`` and each :class:`LossyPath`
    to ``paths``; the run checks them."""

    def __init__(self, seed: int = 0, tracer: Optional[Tracer] = None) -> None:
        self.stream = RngRegistry(seed).stream
        self.sim = Simulator()
        self.tracer = tracer
        self.flow_monitor = FlowMonitor(tracer=tracer)
        self.links: List[Link] = []
        self.paths: List[LossyPath] = []

    def run(self, duration: float) -> "Testbed":
        """Run the scene to ``duration`` simulated seconds, then check packet
        conservation on every link in ``links`` and path in ``paths``."""
        self.sim.run(until=duration)
        for link in self.links:
            _check_conservation(link, self.sim.now)
        for path in self.paths:
            path.check_conservation(self.sim.now)
        return self


class DumbbellTestbed(Testbed):
    """A :class:`Testbed` around one dumbbell -- what the dumbbell builders
    return.

    ``rng`` is the ``"topology"`` stream scenes draw base RTTs and start
    times from (each in its own fixed order: the draw order is the scene's
    byte contract); the bottleneck queue draws from ``"red"``.  The forward
    link is always monitored; ``sample_queue`` adds its occupancy series.
    ``attach(flow_id, base_rtt)`` gives the (forward, reverse) ports of an
    unmonitored source (ON/OFF, web, CBR) or a hand-built flow.
    """

    def __init__(
        self,
        config: DumbbellConfig,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        sample_queue: bool = False,
    ) -> None:
        super().__init__(seed, tracer)
        self.rng = self.stream("topology")
        self.dumbbell = Dumbbell(self.sim, config, queue_rng=self.stream("red"))
        self.links += [self.dumbbell.forward_link, self.dumbbell.reverse_link]
        self.attach = self.dumbbell.attach_flow
        self.link_monitor = LinkMonitor(
            self.sim, self.dumbbell.forward_link,
            tracer=tracer, sample_queue=sample_queue,
        )
        self.tfrc_flows: List[TfrcFlow] = []
        self.tcp_flows: List[TcpFlow] = []

    def _flow(self, cls, flows: list, flow_id: str, base_rtt: float, kwargs):
        fwd, rev = self.attach(flow_id, base_rtt)
        flows.append(cls(
            self.sim, flow_id, fwd, rev,
            on_data=self.flow_monitor.on_packet, tracer=self.tracer, **kwargs,
        ))
        return flows[-1]

    def tfrc(self, flow_id: str, base_rtt: float, **kwargs) -> TfrcFlow:
        """Attach a monitored TFRC flow (not started) and remember it."""
        return self._flow(TfrcFlow, self.tfrc_flows, flow_id, base_rtt, kwargs)

    def tcp(self, flow_id: str, base_rtt: float, **kwargs) -> TcpFlow:
        """Attach a monitored TCP flow (not started) and remember it."""
        return self._flow(TcpFlow, self.tcp_flows, flow_id, base_rtt, kwargs)

    def run(self, duration: float) -> "DumbbellTestbed":
        """:meth:`Testbed.run`, then check that the flow monitor recorded
        each data packet every monitored flow's receiver counted, and each
        TFRC receiver's sequence accounting."""
        super().run(duration)
        _check_delivered(self)
        return self

    @property
    def tfrc_ids(self) -> List[str]:
        return [flow.flow_id for flow in self.tfrc_flows]

    @property
    def tcp_ids(self) -> List[str]:
        return [flow.flow_id for flow in self.tcp_flows]

    def normalized_throughput(
        self, flow_id: str, t_min: float, t_max: float
    ) -> float:
        """Throughput normalized so 1.0 = a fair share of the bottleneck."""
        n = len(self.tfrc_flows) + len(self.tcp_flows)
        fair = self.dumbbell.config.bandwidth_bps / max(1, n)
        return self.flow_monitor.throughput_bps(flow_id, t_min, t_max) / fair


def _check_conservation(link: Link, now: float) -> None:
    """Every packet a link accepted is queued, in service, on the wire or
    delivered, and every RED drop is an early or a forced one -- O(1),
    after the run."""
    queue = link.queue
    red = isinstance(queue, REDQueue)
    if (
        queue.enqueued == queue.dequeued + len(queue)
        and queue.dequeued == link.packets_forwarded + link.in_service
        and link.packets_forwarded
        == link.packets_delivered + len(link._in_flight)
        and (not red or queue.dropped == queue.early_drops + queue.forced_drops)
    ):
        return
    names = ("enqueued", "dequeued", "dropped")
    if red:
        names += ("early_drops", "forced_drops")
    counters = {name: getattr(queue, name) for name in names}
    counters.update(
        queued=len(queue), forwarded=link.packets_forwarded,
        in_service=int(link.in_service), delivered=link.packets_delivered,
        in_flight=len(link._in_flight),
    )
    raise SimulationError(
        f"link {link.name}: packet conservation violated at t={now!r}: {counters}"
    )


def _check_delivered(bed: DumbbellTestbed) -> None:
    """The monitor's packet count per flow equals its receiver's count of
    data arrivals -- the columns ``rate_series`` bins -- and every TFRC
    sequence number below the detector's next expected one was received,
    is pending or was declared lost, exactly once; O(flows)."""
    for flow in bed.tfrc_flows:
        detector = flow.receiver.detector
        received, lost = detector.packets_received, detector.packets_lost
        pending, expected = len(detector._pending_holes), detector._next_expected
        if received + lost + pending != expected:
            raise SimulationError(
                f"flow {flow.flow_id}: {received} received + {lost} lost + "
                f"{pending} pending != {expected} sequence numbers at "
                f"t={bed.sim.now!r}"
            )
    seen = bed.flow_monitor.packets_by_flow
    received = [
        (flow.flow_id, flow.receiver.detector.packets_received)
        for flow in bed.tfrc_flows
    ] + [(flow.flow_id, flow.sink.packets_received) for flow in bed.tcp_flows]
    for flow_id, count in received:
        if seen.get(flow_id, 0) != count:
            raise SimulationError(
                f"flow {flow_id}: flow monitor recorded "
                f"{seen.get(flow_id, 0)} packets, receiver counted {count} "
                f"at t={bed.sim.now!r}"
            )


def build_mixed_dumbbell(
    n_tfrc: int,
    n_tcp: int,
    bandwidth_bps: float = 15e6,
    queue_type: str = "red",
    buffer_packets: Optional[int] = None,
    seed: int = 0,
    interpacket_adjustment: bool = True,
    queue_scaling_bandwidth: Optional[float] = None,
    sample_queue: bool = False,
    tracer: Optional["Tracer"] = None,
) -> DumbbellTestbed:
    """Construct (without running) the standard mixed-traffic dumbbell.

    Queue sizing follows the paper's Figure 6 methodology ("we scale the
    queue size with the bandwidth"): the buffer is the paper's 100 packets
    scaled by ``bandwidth / 15 Mb/s`` (at least 5 packets), unless
    ``buffer_packets`` is given.  RED thresholds scale with the buffer.
    """
    if n_tfrc < 0 or n_tcp < 0 or n_tfrc + n_tcp == 0:
        raise ValueError("need at least one flow")
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
    bed = DumbbellTestbed(config, seed, tracer, sample_queue)
    rng = bed.rng
    staggered_starts: List[Tuple[float, Callable[[], None], tuple]] = []
    for i in range(n_tfrc):
        flow = bed.tfrc(
            f"tfrc-{i}", rng.uniform(*RTT_RANGE),
            interpacket_adjustment=interpacket_adjustment,
        )
        staggered_starts.append((rng.uniform(*START_RANGE), flow.start, ()))
    for i in range(n_tcp):
        flow = bed.tcp(f"tcp-{i}", rng.uniform(*RTT_RANGE))
        staggered_starts.append((rng.uniform(*START_RANGE), flow.start, ()))
    # Bulk-seed the staggered flow starts in one O(n) heapify.
    bed.sim.schedule_batch(staggered_starts)
    return bed


def run_mixed_dumbbell(duration: float = 90.0, **kwargs) -> DumbbellTestbed:
    """Build and run the standard scenario for ``duration`` seconds."""
    return build_mixed_dumbbell(**kwargs).run(duration)


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
    bed = Testbed()
    sim = bed.sim
    forward = LossyPath(
        sim, delay=rtt / 2.0, loss_model=loss_model,
        bandwidth_bps=bandwidth_bps, name="fwd",
    )
    reverse = LossyPath(sim, delay=rtt / 2.0, name="rev")
    bed.paths += [forward, reverse]
    flow = TfrcFlow(
        sim, "tfrc", forward, reverse, packet_size=packet_size,
        on_data=bed.flow_monitor.on_packet, **flow_kwargs,
    )
    flow.start()
    if probe is not None:
        def tick() -> None:
            probe(sim, flow)
            if sim.now < duration:
                sim.schedule_in(probe_interval, tick)

        sim.schedule_in(probe_interval, tick)
    bed.run(duration)
    return SingleTfrcResult(
        sim=sim, flow=flow, path=forward, flow_monitor=bed.flow_monitor,
        duration=duration,
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
        """The profile a spec's ``topology`` group holds; a missing field
        raises ``KeyError`` naming it, as every other spec read does."""
        for f in fields(cls):
            if f.default is MISSING and f.name not in data:
                raise KeyError(f.name)
        return cls(**dict(data))


def _path_testbed(profile: PathProfile, seed: int) -> DumbbellTestbed:
    """The shared single-bottleneck topology of the synthetic paths."""
    config = DumbbellConfig(
        bandwidth_bps=profile.bandwidth_bps,
        delay=profile.base_rtt / 4.0,
        queue_type=profile.queue_type,
        buffer_packets=profile.buffer_packets,
    )
    return DumbbellTestbed(config, seed)


def _cross_traffic(
    bed: DumbbellTestbed,
    profile: PathProfile,
    rtt_factor: Optional[Tuple[float, float]],
) -> None:
    """The path's ON/OFF cross sources: per source a base RTT (the profile's,
    times a U(``rtt_factor``) draw if given), then a start time U(0, 5) s."""
    cross_rng = bed.stream("cross")
    for i in range(profile.cross_sources):
        flow_id = f"cross-{i}"
        factor = bed.rng.uniform(*rtt_factor) if rtt_factor else 1.0
        port, _ = bed.attach(flow_id, profile.base_rtt * factor)
        OnOffSource(
            bed.sim, flow_id, port, rng=cross_rng,
            peak_rate_bps=profile.cross_peak_bps,
        ).start(at=bed.rng.uniform(0.0, 5.0))


def run_internet_path(
    profile: PathProfile,
    n_tcp: int = 3,
    duration: float = 120.0,
    interpacket_adjustment: bool = True,
    seed: int = 0,
) -> DumbbellTestbed:
    """Run ``n_tcp`` TCP flows + 1 TFRC flow + cross traffic over one path.

    The topology half of the paper's section 4.3 methodology (Figures
    15-18): construction order (and hence RNG draw order) is fixed, so one
    ``(profile, seed)`` pair always produces the same run.
    """
    bed = _path_testbed(profile, seed)
    rng = bed.rng
    for i in range(n_tcp):
        bed.tcp(
            f"tcp-{i}", profile.base_rtt * rng.uniform(0.95, 1.05),
            min_rto=profile.tcp_min_rto,
            rto_granularity=profile.tcp_granularity,
            rto_k=profile.tcp_rto_k,
        ).start(at=rng.uniform(0.0, 2.0))
    bed.tfrc(
        "tfrc", profile.base_rtt, interpacket_adjustment=interpacket_adjustment
    ).start(at=rng.uniform(0.0, 2.0))
    _cross_traffic(bed, profile, rtt_factor=(0.8, 1.2))
    return bed.run(duration)


def run_tfrc_probe_path(
    profile: PathProfile,
    duration: float = 150.0,
    seed: int = 0,
) -> DumbbellTestbed:
    """One TFRC probe flow over a synthetic path with ON/OFF cross traffic.

    The predictor-scoring harness (Figure 18): the monitored flow starts at
    t=0 and its receiver-side loss-interval history is the product; cross
    sources provide the bursty, non-stationary loss process.
    """
    bed = _path_testbed(profile, seed)
    bed.tfrc("tfrc", profile.base_rtt).start()
    _cross_traffic(bed, profile, rtt_factor=None)
    return bed.run(duration)


def steady_state_window(duration: float, fraction: float = 0.5) -> Tuple[float, float]:
    """Measurement window skipping the warm-up: the last ``fraction`` of the
    run, mirroring the paper's "last 60 seconds" / "last 100 seconds" usage."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
    return duration * (1.0 - fraction), duration


# ------------------------------------------------------ declarative entry points


def _never_drop(packet, now) -> bool:
    return False


#: the keys each loss model accepts besides ``model`` (a phase adds ``at``).
_LOSS_KEYS = {
    "none": (),
    "": (),
    "bernoulli": ("probability",),
    "periodic": ("offset", "period"),
    "scheduled": ("phases",),
}


def loss_model_from_spec(
    loss: Dict[str, object],
    rng: Optional[Union[np.random.Generator, BlockDraws]] = None,
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

    Malformed input raises :class:`ValueError` naming the offending field,
    e.g. ``loss.phases[1].perod``: a key the chosen model does not take, a
    value that is not a finite number (``bool`` included), a ``period`` or
    ``offset`` that is not integral, or ``phases`` that is not a list of
    mappings.

    Every Bernoulli phase of one call draws from one :class:`BlockDraws`
    over ``rng``, so the model consumes the generator's values in the order
    per-packet scalar draws would; nothing else may draw from ``rng``.
    """
    if rng is not None and not isinstance(rng, BlockDraws):
        rng = BlockDraws(rng)
    return _loss_model(loss, rng, "loss")


def _number(
    loss: Dict[str, object], key: str, default: float, where: str,
    integral: bool = False,
) -> float:
    """``loss[key]`` (else ``default``), checked finite and, if asked, integral."""
    value = loss.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{where}.{key}: expected a finite number, got {value!r}")
    if integral and value != int(value):
        raise ValueError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _loss_model(
    loss: Dict[str, object], rng: Optional[BlockDraws], where: str
) -> Optional[LossModel]:
    model = loss.get("model", "none")
    if not isinstance(model, str) or model not in _LOSS_KEYS:
        raise ValueError(f"{where}.model: unknown loss model {model!r}")
    accepted = _LOSS_KEYS[model]
    unknown = sorted(str(k) for k in loss if k != "model" and k not in accepted)
    if unknown:
        raise ValueError(
            f"{where}.{unknown[0]}: not a key of the {model or 'none'!r} loss "
            f"model (accepted: {', '.join(('model',) + accepted)})"
        )
    if model in ("none", ""):
        return None
    if model == "bernoulli":
        if rng is None:
            raise ValueError("bernoulli loss model needs an rng")
        return bernoulli_loss(float(_number(loss, "probability", 0.01, where)), rng)
    if model == "periodic":
        return periodic_loss(
            int(_number(loss, "period", 100, where, integral=True)),
            offset=int(_number(loss, "offset", 0, where, integral=True)),
        )
    phases = loss.get("phases", [])
    if not isinstance(phases, (list, tuple)):
        raise ValueError(f"{where}.phases: expected a list, got {phases!r}")
    if not phases:
        raise ValueError(f"{where}.phases: a scheduled loss model needs a phase")
    schedule: List[Tuple[float, LossModel]] = []
    for i, phase in enumerate(phases):
        at = f"{where}.phases[{i}]"
        if not isinstance(phase, Mapping):
            raise ValueError(f"{at}: expected a mapping, got {phase!r}")
        inner = {k: v for k, v in phase.items() if k != "at"}
        schedule.append(
            (
                float(_number(phase, "at", 0.0, at)),
                _loss_model(inner, rng, at) or _never_drop,
            )
        )
    return scheduled_loss(schedule)


def periodic_phase(at: float, period: int) -> JsonDict:
    """One ``scheduled`` phase dropping every ``period``-th packet."""
    return {"at": float(at), "model": "periodic",
            "period": int(period), "offset": 0}


def lossless_phase(at: float) -> JsonDict:
    """One ``scheduled`` phase dropping nothing (loss switched off)."""
    return {"at": float(at), "model": "none"}


def _reject_unread(spec: ScenarioSpec, **groups: Tuple[str, ...]) -> None:
    """Raise :class:`ValueError` naming ``group.key`` for the first key of
    each named spec group that is not among the keys the scenario reads."""
    for group, accepted in groups.items():
        unread = sorted(str(k) for k in getattr(spec, group) if k not in accepted)
        if unread:
            raise ValueError(
                f"{group}.{unread[0]}: not a key of the {spec.scenario!r} "
                f"scenario (accepted: {', '.join(accepted) or 'none'})"
            )


@register_scenario("mixed_dumbbell")
def mixed_dumbbell_scenario(spec: ScenarioSpec) -> JsonDict:
    """Declarative mixed dumbbell: summary fairness metrics for one cell.

    Spec layout (any other key raises, naming it; ``loss`` takes none)::

        topology: {bandwidth_bps, queue_scaling_bandwidth?}
        flows:    {n_tfrc, n_tcp, interpacket_adjustment?}
        queue:    {type, buffer_packets?}
        extra:    {measure_fraction?}
    """
    _reject_unread(
        spec,
        topology=("bandwidth_bps", "queue_scaling_bandwidth"),
        flows=("n_tfrc", "n_tcp", "interpacket_adjustment"),
        queue=("type", "buffer_packets"),
        loss=(),
        extra=("measure_fraction",),
    )
    t0, t1 = steady_state_window(
        spec.duration, float(spec.extra.get("measure_fraction", 0.5))
    )
    result = run_mixed_dumbbell(
        duration=spec.duration,
        n_tfrc=int(spec.flows.get("n_tfrc", 1)),
        n_tcp=int(spec.flows.get("n_tcp", 1)),
        bandwidth_bps=float(spec.topology.get("bandwidth_bps", 15e6)),
        queue_type=str(spec.queue.get("type", "red")),
        buffer_packets=spec.queue.get("buffer_packets"),
        seed=spec.seed,
        interpacket_adjustment=bool(
            spec.flows.get("interpacket_adjustment", True)
        ),
        queue_scaling_bandwidth=spec.topology.get("queue_scaling_bandwidth"),
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

    Spec layout (any other key raises, naming it; ``flows``, ``queue`` and
    ``extra`` take none)::

        topology: {rtt?, bandwidth_bps?, packet_size?}
        loss:     {model, ...} (see :func:`loss_model_from_spec`)
    """
    _reject_unread(
        spec,
        topology=("rtt", "bandwidth_bps", "packet_size"),
        flows=(), queue=(), extra=(),
    )
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
