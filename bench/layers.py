"""Layer probes: a subtraction ladder over the program's public functions.

Engine alone (heap push/pop, null handlers); then link + queue driven by
``traffic.cbr.CbrSource``; then endpoints on a queue-less ``LossyPath``;
then direct calls into the tracer, the vector kernel and the spec / cache
/ queue APIs.  Every probe does a fixed amount of work and reports a
per-operation cost, so two commits compare on the same operations.

A probe whose public function a later change removed or renamed does not
stop the run: its metrics are reported missing under the dotted name that
failed (``Probes.missing``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: seconds a callable took, load-normalised by the caller's calibrator;
#: the second argument says the work ran in another process.
Clock = Callable[..., float]

_PROBES: List[Callable[["Probes"], Dict[str, float]]] = []


def probe(*metrics: str) -> Callable[[Callable], Callable]:
    """Register a probe and the metric names it reports."""

    def register(fn: Callable) -> Callable:
        fn.metrics = metrics
        _PROBES.append(fn)
        return fn

    return register


def probe_metrics() -> List[str]:
    return [name for fn in _PROBES for name in fn.metrics]


class Probes:
    def __init__(self, clock: Clock, scratch: Path, scale: float = 1.0) -> None:
        self.clock = clock
        self.scratch = Path(scratch)
        self.scale = scale
        self.missing: Dict[str, str] = {}

    def ops(self, n: int) -> int:
        return max(16, int(n * self.scale))

    def per_op(self, fn: Callable[[], Any], ops: int, unit: float = 1e9) -> float:
        """Cost of one of ``ops`` operations done by ``fn``, in ns by default."""
        return unit * self.clock(fn) / ops

    def best(self, measure: Callable[[], float], repeats: int = 3) -> float:
        """Lowest of ``repeats`` measurements, for probes of a few ms."""
        return min(measure() for _ in range(repeats))

    def run_all(self) -> Dict[str, Optional[float]]:
        results: Dict[str, Optional[float]] = {}
        for fn in _PROBES:
            try:
                results.update(fn(self))
            except (ImportError, AttributeError, TypeError, KeyError) as exc:
                for name in fn.metrics:
                    results[name] = None
                    self.missing[name] = f"{fn.__name__}: {exc}"
        return results


def _noop(*args: Any) -> None:
    pass


# ------------------------------------------------------------------ engine


@probe(
    "sim.engine.null_event_ns",
    "sim.engine.handle_event_ns",
    "sim.engine.cancel_skip_ns",
    "sim.engine.batch_event_ns",
    "sim.process.fasttimer_restart_ns",
)
def engine(p: Probes) -> Dict[str, float]:
    from repro.sim import Simulator
    from repro.sim.process import FastTimer

    n = p.ops(30_000)
    chains = 64

    def chained(schedule_name: str) -> float:
        """``chains`` self-rescheduling null handlers: push + pop + call."""
        sim = Simulator()
        schedule = getattr(sim, schedule_name)

        def tick() -> None:
            schedule(sim.now + 0.001, tick)

        for i in range(chains):
            schedule(i * 1e-5, tick)
        return p.per_op(lambda: sim.run(max_events=n), n)

    def cancelled() -> float:
        sim = Simulator()
        for i in range(n):
            sim.schedule(i * 1e-6, _noop).cancel()
        return p.per_op(sim.run, n)

    def batched() -> float:
        sim = Simulator()
        items = [(i * 1e-6, _noop, ()) for i in range(n)]

        def work() -> None:
            sim.schedule_batch(items)
            sim.run()

        return p.per_op(work, n)

    def timer_restarts() -> float:
        sim = Simulator()
        timer = FastTimer(sim, _noop)

        def work() -> None:
            for _ in range(n):
                timer.restart(0.5)
            sim.run()

        return p.per_op(work, n)

    return {
        "sim.engine.null_event_ns": p.best(lambda: chained("schedule_fast")),
        "sim.engine.handle_event_ns": p.best(lambda: chained("schedule")),
        "sim.engine.cancel_skip_ns": p.best(cancelled),
        "sim.engine.batch_event_ns": p.best(batched),
        "sim.process.fasttimer_restart_ns": p.best(timer_restarts),
    }


# ------------------------------------------------------------ link + queue


@probe(
    "net.link.droptail_pkt_ns",
    "net.link.red_pkt_ns",
    "net.queues.droptail_enqueue_ns",
    "net.queues.red_enqueue_ns",
    "net.path.lossy_pkt_ns",
)
def network(p: Probes) -> Dict[str, float]:
    import numpy as np

    from repro.net.link import Link
    from repro.net.packet import Packet
    from repro.net.path import LossyPath, bernoulli_loss
    from repro.net.queues import DropTailQueue, REDQueue
    from repro.sim import Simulator
    from repro.traffic.cbr import CbrSource

    def queues() -> Dict[str, Any]:
        return {
            "droptail": DropTailQueue(50),
            "red": REDQueue(
                50, min_thresh=5, max_thresh=25, rng=np.random.default_rng(0)
            ),
        }

    out: Dict[str, float] = {}
    packets = p.ops(30_000)
    link_bps = 10e6
    for name, queue in queues().items():
        # CBR at 1.2x the link rate: the queue fills, so enqueue, drop,
        # dequeue and the wake chain all run.
        sim = Simulator()
        link = Link(sim, link_bps, 0.01, queue)
        link.connect(_noop)
        source = CbrSource(sim, "cbr", link, rate_bps=1.2 * link_bps)
        source.start()
        until = packets * 8000 / (1.2 * link_bps)
        seconds = p.clock(lambda: sim.run(until=until))
        out[f"net.link.{name}_pkt_ns"] = 1e9 * seconds / source.packets_sent

    n = p.ops(100_000)
    pool = [Packet("f", i, 1000) for i in range(64)]
    for name, queue in queues().items():

        def churn(queue: Any = queue) -> None:
            now = 0.0
            for i in range(n):
                queue.enqueue(pool[i & 63], now)
                if len(queue) > 20:
                    queue.dequeue(now)
                now += 1e-4

        out[f"net.queues.{name}_enqueue_ns"] = p.per_op(churn, n)

    sim = Simulator()
    path = LossyPath(
        sim, 0.05, loss_model=bernoulli_loss(0.01, np.random.default_rng(0))
    )
    path.connect(_noop)
    n = p.ops(40_000)

    def through_path() -> None:
        for i in range(n):
            path.send(pool[i & 63])
        sim.run()

    out["net.path.lossy_pkt_ns"] = p.per_op(through_path, n)
    return out


# ---------------------------------------------------------------- endpoints


@probe(
    "core.tfrc.pkt_ns",
    "core.loss_events.events",
    "core.loss_events.arrival_ns",
    "core.loss_intervals.update_ns",
    "core.equations.rate_ns",
    "core.equations.invert_ns",
)
def tfrc_core(p: Probes) -> Dict[str, float]:
    import numpy as np

    from repro.core.equations import invert_response, tcp_response_rate
    from repro.core.loss_events import LossEventDetector
    from repro.core.loss_intervals import AverageLossIntervals
    from repro.net.path import bernoulli_loss
    from repro.scenarios import run_single_tfrc_on_lossy_path

    out: Dict[str, float] = {}
    holder: Dict[str, Any] = {}

    def flow() -> None:
        holder["run"] = run_single_tfrc_on_lossy_path(
            bernoulli_loss(0.01, np.random.default_rng(0)),
            duration=max(5.0, 60.0 * p.scale),
        )

    seconds = p.clock(flow)
    detector = holder["run"].flow.receiver.detector
    out["core.tfrc.pkt_ns"] = 1e9 * seconds / detector.packets_received
    out["core.loss_events.events"] = len(detector.events)

    n = p.ops(60_000)
    detector = LossEventDetector(rtt_fn=lambda: 0.1)

    def arrivals() -> None:
        seq = 0
        for i in range(n):
            seq += 2 if i % 100 == 99 else 1  # one hole per hundred
            detector.on_arrival(seq, i * 0.001)

    out["core.loss_events.arrival_ns"] = p.per_op(arrivals, n)

    intervals = AverageLossIntervals()

    def updates() -> None:
        for i in range(n):
            intervals.on_packet()
            if i % 100 == 99:
                intervals.on_loss_event()
            if i % 8 == 0:
                intervals.loss_event_rate()

    out["core.loss_intervals.update_ns"] = p.per_op(updates, n)

    def rates() -> None:
        for i in range(n):
            tcp_response_rate(1000, 0.1, 0.001 + (i % 100) * 0.001, 0.4)

    out["core.equations.rate_ns"] = p.per_op(rates, n)

    inversions = p.ops(1500)

    def inverts() -> None:
        for i in range(inversions):
            invert_response(1000, 0.1, 20_000.0 + 100.0 * i, 0.4)

    out["core.equations.invert_ns"] = p.per_op(inverts, inversions)
    return out


@probe("tcp.sack.pkt_ns")
def tcp_sack(p: Probes) -> Dict[str, float]:
    import numpy as np

    from repro.net.path import LossyPath, bernoulli_loss
    from repro.sim import Simulator
    from repro.tcp.flow import TcpFlow

    sim = Simulator()
    forward = LossyPath(
        sim, 0.05, loss_model=bernoulli_loss(0.002, np.random.default_rng(0)),
        bandwidth_bps=8e6,
    )
    reverse = LossyPath(sim, 0.05)
    delivered = [0]

    def on_data(now: float, packet: Any) -> None:
        delivered[0] += 1

    TcpFlow(sim, "tcp", forward, reverse, variant="sack", on_data=on_data).start()
    seconds = p.clock(lambda: sim.run(until=max(5.0, 40.0 * p.scale)))
    return {"tcp.sack.pkt_ns": 1e9 * seconds / max(1, delivered[0])}


# ------------------------------------------------------ tracer and monitors


@probe(
    "sim.trace.record_ns",
    "sim.trace.select_ms",
    "net.monitor.flow_on_packet_ns",
    "net.monitor.overhead_frac",
)
def tracing(p: Probes) -> Dict[str, float]:
    from repro.net.monitor import FlowMonitor
    from repro.net.packet import Packet
    from repro.scenarios import build_mixed_dumbbell
    from repro.sim.trace import Tracer

    out: Dict[str, float] = {}
    n = p.ops(150_000)
    tracer = Tracer()
    categories = ("send", "recv", "queue")
    sources = [f"flow-{i}" for i in range(8)]

    def records() -> None:
        record = tracer.record
        for i in range(n):
            record(i * 1e-4, categories[i % 3], sources[i & 7], 1000.0)

    out["sim.trace.record_ns"] = p.per_op(records, n)

    def reads() -> None:
        tracer.select(category="recv", source="flow-1")
        tracer.series(category="queue")

    out["sim.trace.select_ms"] = 1e3 * p.clock(reads)

    monitor = FlowMonitor()
    pool = [Packet(sources[i & 7], i, 1000) for i in range(64)]

    def deliveries() -> None:
        on_packet = monitor.on_packet
        for i in range(n):
            on_packet(i * 1e-4, pool[i & 63])

    out["net.monitor.flow_on_packet_ns"] = p.per_op(deliveries, n)

    def dumbbell(traced: bool) -> float:
        built = build_mixed_dumbbell(
            n_tfrc=4, n_tcp=4, bandwidth_bps=8e6, seed=0,
            tracer=Tracer() if traced else None, sample_queue=traced,
        )
        return p.clock(lambda: built.sim.run(until=max(2.0, 20.0 * p.scale)))

    plain = p.best(lambda: dumbbell(False), 2)
    out["net.monitor.overhead_frac"] = (
        p.best(lambda: dumbbell(True), 2) / plain - 1.0
    )
    return out


# ------------------------------------------------------------ vector kernel


@probe(
    "sim.vector_kernel.lane_cell_ms",
    "sim.vector_kernel.lane256_cell_ms",
    "sim.vector_kernel.scalar_cell_ms",
    "sim.vector_kernel.speedup",
    "sim.rng.drawlanes_take_us",
    "core.loss_intervals.wali_fold_us",
)
def vector_kernel(p: Probes) -> Dict[str, float]:
    import numpy as np

    from repro.core.loss_intervals import ali_weights, wali_fold_average
    from repro.scenarios import spec_to_cell_params
    from repro.sim.rng import DrawLanes
    from repro.sim.vector_kernel import run_cell_scalar, run_cells_vector

    base = _grid_base().override({"duration": 20.0})

    def cells(count: int) -> List[Any]:
        return [
            spec_to_cell_params(
                base.override({
                    "topology.rtt": (0.08, 0.12)[i & 1],
                    "loss.rate": (0.02, 0.03, 0.04, 0.06)[(i >> 1) & 3],
                    "seed": i,
                })
            )
            for i in range(count)
        ]

    out: Dict[str, float] = {}
    for metric, lanes in (("lane_cell_ms", 1024), ("lane256_cell_ms", 256)):
        lanes = max(8, int(lanes * min(1.0, p.scale * 4)))
        batch = cells(lanes)
        out[f"sim.vector_kernel.{metric}"] = p.per_op(
            lambda: run_cells_vector(batch), lanes, unit=1e3
        )
    scalar = cells(max(2, int(16 * p.scale)))
    out["sim.vector_kernel.scalar_cell_ms"] = p.per_op(
        lambda: [run_cell_scalar(cell) for cell in scalar], len(scalar), unit=1e3
    )
    out["sim.vector_kernel.speedup"] = (
        out["sim.vector_kernel.scalar_cell_ms"]
        / out["sim.vector_kernel.lane_cell_ms"]
    )

    lanes = DrawLanes([np.random.default_rng(i) for i in range(1024)])
    everyone = np.ones(1024, dtype=bool)
    takes = p.ops(400)

    def draw() -> None:
        for _ in range(takes):
            lanes.take(everyone)

    out["sim.rng.drawlanes_take_us"] = p.per_op(draw, takes, unit=1e6)

    weights = ali_weights(8)
    values = [120.0, 80.0, 100.0, 95.0, 110.0, 70.0, 130.0, 90.0]
    folds = p.ops(60_000)

    def fold() -> None:
        for _ in range(folds):
            wali_fold_average(weights, values)

    out["core.loss_intervals.wali_fold_us"] = p.per_op(fold, folds, unit=1e6)
    return out


# ------------------------------------------------------- spec, cache, queue


def _grid_base() -> Any:
    from repro.scenarios import ScenarioSpec

    return ScenarioSpec(
        "tfrc_equation_grid",
        topology={"bandwidth_bps": 1.5e6, "packet_size": 1000},
        queue={"type": "red", "buffer_packets": 25},
        duration=45.0,
    )


@probe(
    "scenarios.spec.hash_us",
    "scenarios.spec.override_us",
    "scenarios.sweep.expand_us_per_cell",
)
def spec_layer(p: Probes) -> Dict[str, float]:
    from repro.scenarios import SweepRunner

    base = _grid_base()
    n = p.ops(3000)
    overrides = {"topology.rtt": 0.12, "loss.rate": 0.03, "seed": 7}

    def hashes() -> None:
        for _ in range(n):
            base.spec_hash()

    def overriding() -> None:
        for _ in range(n):
            base.override(overrides)

    seeds = p.ops(64)
    sweep = SweepRunner(
        base,
        {
            "topology.rtt": [0.08, 0.12],
            "loss.rate": [0.02, 0.03, 0.04, 0.06],
            "seed": list(range(seeds)),
        },
    )
    return {
        "scenarios.spec.hash_us": p.per_op(hashes, n, unit=1e6),
        "scenarios.spec.override_us": p.per_op(overriding, n, unit=1e6),
        "scenarios.sweep.expand_us_per_cell": p.per_op(
            sweep.cells, 8 * seeds, unit=1e6
        ),
    }


@probe(
    "scenarios.cache.put_us",
    "scenarios.cache.put_p95_us",
    "scenarios.cache.serialize_us",
    "scenarios.cache.fsync_us",
    "scenarios.cache.bytes_per_entry",
    "scenarios.cache.get_us",
    "scenarios.cache.get_miss_us",
    "scenarios.cache.len_ms",
)
def cache_layer(p: Probes) -> Dict[str, float]:
    from repro.scenarios import ResultCache, run_scenario

    from timing import percentile

    base = _grid_base()
    result = run_scenario(base.override({"duration": 5.0}))
    entries = p.ops(128)
    specs = [base.override({"seed": i}) for i in range(entries)]
    absent = [base.override({"seed": 10_000 + i}) for i in range(entries)]
    root = p.scratch / "probe-cache"
    cache = ResultCache(root)

    # Time spent inside os.fsync, seen from here: the cache is not edited.
    fsync_s = [0.0]
    real_fsync = os.fsync

    def timed_fsync(fd: int) -> None:
        started = time.perf_counter()
        real_fsync(fd)
        fsync_s[0] += time.perf_counter() - started

    put_us = []
    os.fsync = timed_fsync
    try:
        for spec in specs:
            put_us.append(1e6 * p.clock(lambda: cache.put(spec, result)))
    finally:
        os.fsync = real_fsync
    sizes = [path.stat().st_size for path in root.glob("*.json")]

    def serializing() -> None:
        for spec in specs:
            cache.serialize(spec, result)

    def hits() -> None:
        for spec in specs:
            if cache.get(spec) is None:
                raise KeyError("expected a cache hit")

    def misses() -> None:
        for spec in absent:
            cache.get(spec)

    # Truthiness of a cache holding 1024 entries (the sweep asks per cell).
    crowded = p.scratch / "probe-cache-1024"
    big = ResultCache(crowded)
    for i in range(1024):
        (crowded / f"entry-{i:04d}.json").touch()
    truth_tests = p.ops(20)

    def truthiness() -> None:
        for _ in range(truth_tests):
            bool(big)

    return {
        "scenarios.cache.put_us": percentile(put_us, 0.5),
        "scenarios.cache.put_p95_us": percentile(put_us, 0.95),
        "scenarios.cache.serialize_us": p.per_op(serializing, entries, unit=1e6),
        "scenarios.cache.fsync_us": 1e6 * fsync_s[0] / entries,
        "scenarios.cache.bytes_per_entry": sum(sizes) / max(1, len(sizes)),
        "scenarios.cache.get_us": p.per_op(hits, entries, unit=1e6),
        "scenarios.cache.get_miss_us": p.per_op(misses, entries, unit=1e6),
        "scenarios.cache.len_ms": p.per_op(truthiness, truth_tests, unit=1e3),
    }


@probe("scenarios.queue.cycle_ms")
def queue_layer(p: Probes) -> Dict[str, float]:
    from repro.scenarios import FileQueue

    queue = FileQueue(p.scratch / "probe-queue").ensure()
    spec = _grid_base().to_dict()
    cycles = p.ops(32)

    def lifecycle() -> None:
        """enqueue -> claim -> heartbeat -> complete, in this process."""
        for i in range(cycles):
            key = f"probe-{i:04d}"
            queue.enqueue({"key": key, "spec": spec, "attempts": 0})
            claim, payload = queue.claim_next("probe-worker")
            queue.heartbeat(claim)
            queue.complete(
                payload["key"], worker="probe-worker", elapsed_seconds=0.0,
                attempts=1,
            )
            queue.release_claim(claim, "probe-worker")

    return {"scenarios.queue.cycle_ms": p.per_op(lifecycle, cycles, unit=1e3)}


@probe("experiments.import_s")
def runner_import(p: Probes) -> Dict[str, float]:
    """Fresh-interpreter import of the experiment runner."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(x for x in sys.path if x))

    def fresh_import() -> None:
        subprocess.run(
            [sys.executable, "-c", "import repro.experiments.runner"],
            env=env, check=True,
        )

    return {"experiments.import_s": p.clock(fresh_import, True)}
