"""The seven workloads: what each feeds the program, and how it is checked.

A workload drives the program only through the public surface listed in
``bench/README.md`` and always on the default path: it passes no
fast-path/legacy flag and names executors by string, so a later change may
delete those flags and classes without editing the benchmark.  ``run()``
is the timed region; ``setup()``/``prepare()``/``finish()`` are not.
``finish()`` returns an :class:`Observation` -- a digest of what the pass
produced, the cells the in-run identity checks reject, and exact counters.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
import warnings
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.experiments import runner
from repro.net.monitor import LinkMonitor
from repro.scenarios import (
    ScenarioSpec,
    SweepRunner,
    VectorFallbackWarning,
    build_mixed_dumbbell,
)
from repro.sim.trace import Tracer

from timing import Calibrator, Region, percentile

#: a digest is one sha256, or one per part (figure) so a mismatch can be
#: counted part by part.
Digest = Union[str, Dict[str, str]]


@dataclass
class Observation:
    digest: Digest
    bad_cells: int = 0
    counts: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


def sha256_json(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_files(cache_dir: Path) -> Dict[str, bytes]:
    """Every committed entry of a result cache: name -> bytes."""
    return {
        path.name: path.read_bytes()
        for path in sorted(Path(cache_dir).glob("*.json"))
    }


def sha256_files(files: Dict[str, bytes]) -> str:
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode("utf-8"))
        digest.update(files[name])
    return digest.hexdigest()


def unfinished_cells(sweep: Any) -> int:
    """Cells of a finished sweep that raised nothing yet hold no result."""
    return sum(
        1 for cell in sweep.cells if cell.result is None or cell.quarantined
    )


class Workload:
    """One named set of inputs; subclasses fill in the five phases."""

    name = ""
    why = ""
    #: one untimed pass before the timed ones, charged to ``setup_s``.
    warmup = True
    #: peak RSS counts child processes too.
    children = False

    def __init__(self, seed: int, scratch: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.scratch = Path(scratch)
        self.tiny = tiny
        self._dirs = 0
        #: stopwatch for phases a workload times itself; the runner swaps
        #: in its calibrator's, which load-normalises.
        self.region = Calibrator().region

    #: result cells one timed pass delivers.
    cells = 1

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.scratch / f"{self.name}-{label}-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        """Everything before the first pass; must be repeatable."""

    def prepare(self) -> None:
        """Untimed, before every pass."""

    def run(self) -> None:
        raise NotImplementedError

    def layers(self) -> Dict[str, float]:
        """Layer-side extras of the pass just run (traced runs only)."""
        return {}

    def wall(self, region: Region) -> float:
        """Load-normalised seconds of the pass ``region`` timed."""
        return region.norm_s

    def finish(self) -> Observation:
        raise NotImplementedError


# ------------------------------------------------------------ packet level


class PacketDumbbell(Workload):
    name = "packet_dumbbell"
    why = (
        "16 TFRC + 16 TCP on a 32 Mb/s RED dumbbell, no tracer: engine heap, "
        "link/RED and the endpoints do all the work; cache and fabric none"
    )
    flows, mbps, until, traced = 16, 32.0, 20.0, False

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if self.tiny:
            self.flows, self.mbps, self.until = 2, 4.0, 5.0

    def _build(self) -> Tuple[Any, Optional[Tracer]]:
        tracer = Tracer() if self.traced else None
        built = build_mixed_dumbbell(
            n_tfrc=self.flows,
            n_tcp=self.flows,
            bandwidth_bps=self.mbps * 1e6,
            queue_type="red",
            seed=self.seed,
            tracer=tracer,
            sample_queue=self.traced,
        )
        if tracer is not None:
            LinkMonitor(
                built.sim, built.dumbbell.reverse_link, tracer=tracer,
                sample_queue=True,
            )
        return built, tracer

    def setup(self) -> None:
        self._build()

    def prepare(self) -> None:
        self.built, self.tracer = self._build()

    def run(self) -> None:
        self.built.sim.run(until=self.until)

    def finish(self) -> Observation:
        built, tracer = self.built, self.tracer
        queue = built.dumbbell.forward_link.queue
        counts: Dict[str, float] = {
            "sim.engine.events": built.sim.events_processed,
            "net.link.packets_forwarded": (
                built.dumbbell.forward_link.packets_forwarded
            ),
            "net.queues.early_drops": queue.early_drops,
            "net.queues.forced_drops": queue.forced_drops,
            "tcp.retransmissions": sum(
                flow.sender.retransmissions for flow in built.tcp_flows
            ),
        }
        produced: Dict[str, Any] = dict(counts)
        produced["bytes_by_flow"] = dict(built.flow_monitor.bytes_by_flow)
        if tracer is not None:
            counts["sim.trace.records"] = len(tracer)
            times, values = tracer.series()
            columns = hashlib.sha256(array("d", times).tobytes())
            columns.update(array("d", values).tobytes())
            produced["trace_columns"] = columns.hexdigest()
            produced["trace_sources"] = tracer.sources()
        self.built = self.tracer = None
        return Observation(digest=sha256_json(produced), counts=counts)


class PacketTraced(PacketDumbbell):
    name = "packet_traced"
    why = (
        "8 + 8 flows at 15 Mb/s with Tracer, FlowMonitor and both "
        "LinkMonitors sampling: sim/trace.py and net/monitor.py on every "
        "packet; a tracer change moves this and not packet_dumbbell"
    )
    flows, mbps, until, traced = 8, 15.0, 30.0, True


# ------------------------------------------------------------ sweep fabric


class LossyPathGrid(Workload):
    name = "lossy_path_grid"
    why = (
        "tfrc_lossy_path, 3 rtt x 4 Bernoulli p x 2 seeds, serial, cold "
        "cache: core/ loss events, WALI, equation and net/path.py; no queue"
    )
    executor = "serial"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.base, self.grid = self.spec_grid()
        self.cells = 1
        for values in self.grid.values():
            self.cells *= len(values)

    def seeds(self, count: int) -> List[int]:
        return [self.seed * 1000 + i for i in range(count)]

    def spec_grid(self) -> Tuple[ScenarioSpec, Dict[str, List[Any]]]:
        base = ScenarioSpec(
            "tfrc_lossy_path",
            loss={"model": "bernoulli"},
            duration=5.0 if self.tiny else 40.0,
        )
        grid = {
            "topology.rtt": [0.1] if self.tiny else [0.05, 0.1, 0.2],
            "loss.probability": (
                [0.01] if self.tiny else [0.005, 0.01, 0.02, 0.05]
            ),
            "seed": self.seeds(2),
        }
        return base, grid

    def sweep(
        self, cache_dir: Path, executor: Optional[str] = None, **kwargs: Any
    ) -> Any:
        return SweepRunner(
            self.base, self.grid, executor=executor or self.executor,
            cache_dir=str(cache_dir), **kwargs,
        ).run()

    def prepare(self) -> None:
        self.cache_dir = self.fresh_dir("cache")

    def run(self) -> None:
        self.result = self.sweep(self.cache_dir)

    def layers(self) -> Dict[str, float]:
        cell_ms = [1e3 * cell.elapsed_seconds for cell in self.result.cells]
        return {
            "scenarios.sweep.cell_p50_ms": percentile(cell_ms, 0.50),
            "scenarios.sweep.cell_p95_ms": percentile(cell_ms, 0.95),
        }

    def finish(self) -> Observation:
        files = cache_files(self.cache_dir)
        bad = max(unfinished_cells(self.result), self.cells - len(files))
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        return Observation(digest=sha256_files(files), bad_cells=bad)


class EquationGridVector(LossyPathGrid):
    name = "equation_grid_vector"
    why = (
        "tfrc_equation_grid, 2 rtt x 4 loss x 64 seeds on the vector "
        "executor, cold cache: the lockstep kernel plus 512 ResultCache.put "
        "commits; the scalar core/ endpoints do nothing"
    )
    executor = "vector"
    duration = 45.0

    def spec_grid(self) -> Tuple[ScenarioSpec, Dict[str, List[Any]]]:
        base = ScenarioSpec(
            "tfrc_equation_grid",
            topology={"bandwidth_bps": 1.5e6, "packet_size": 1000},
            queue={"type": "red", "buffer_packets": 25},
            duration=5.0 if self.tiny else self.duration,
        )
        grid = {
            "topology.rtt": [0.08, 0.12],
            "loss.rate": [0.02] if self.tiny else [0.02, 0.03, 0.04, 0.06],
            "seed": self.seeds(8 if self.tiny else 64),
        }
        return base, grid

    def run(self) -> None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", VectorFallbackWarning)
            self.result = self.sweep(self.cache_dir)
        self.fallbacks = sum(
            1 for w in caught if issubclass(w.category, VectorFallbackWarning)
        )

    def finish(self) -> Observation:
        observation = super().finish()
        if self.fallbacks:
            observation.bad_cells = self.cells
            observation.notes.append(
                f"{self.fallbacks} VectorFallbackWarning(s): cells left the "
                f"lockstep kernel"
            )
        observation.counts["scenarios.vector.fallback_cells"] = (
            self.cells if self.fallbacks else 0
        )
        return observation


class CacheWarmReplay(EquationGridVector):
    name = "cache_warm_replay"
    why = (
        "the same 512-cell grid, cache filled in set-up; two all-hit "
        "SweepRunner.run() passes: expansion, spec_hash, ResultCache.get and "
        "the per-cell __len__ glob, no simulation"
    )
    #: a hit costs the same whatever was simulated; populate at the floor.
    duration = 20.0
    replays = 2

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.grid_cells = self.cells
        self.cells = self.replays * self.grid_cells
        self.cache_dir: Optional[Path] = None

    def setup(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir = self.fresh_dir("cache")
        populated = self.sweep(self.cache_dir)
        self.populated = [cell.result for cell in populated.cells]

    def prepare(self) -> None:
        pass

    def run(self) -> None:
        self.results = [self.sweep(self.cache_dir) for _ in range(self.replays)]
        self.result = self.results[-1]

    def finish(self) -> Observation:
        bad = 0
        for sweep in self.results:
            misses = self.grid_cells - sweep.cache_hits
            differing = sum(
                1
                for cell, expected in zip(sweep.cells, self.populated)
                if cell.result != expected
            )
            bad += max(misses, differing)
        digest = sha256_files(cache_files(self.cache_dir))
        return Observation(digest=digest, bad_cells=bad)


class FabricPoolQueue(LossyPathGrid):
    name = "fabric_pool_queue"
    why = (
        "mixed_dumbbell 1 + 1 flows, 30 sim-s x 6 seeds, once under pool "
        "and once under queue: fork, lease/claim/heartbeat/done traffic and "
        "cache-mediated delivery beside ~0.1 s cells"
    )
    #: the serial reference in set-up is also this workload's warm-up.
    warmup = False
    children = True
    executors = ("pool", "queue")
    #: generator + one worker = the box's two cores, and :meth:`wall`
    #: swaps the worker-timed cell seconds one for one, which is only the
    #: critical path when a single worker runs the cells back to back.
    parallel = 1

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.grid_cells = self.cells
        self.cells = len(self.executors) * self.grid_cells

    def spec_grid(self) -> Tuple[ScenarioSpec, Dict[str, List[Any]]]:
        base = ScenarioSpec(
            "mixed_dumbbell",
            topology={"bandwidth_bps": 1.5e6},
            flows={"n_tfrc": 1, "n_tcp": 1},
            queue={"type": "red"},
            duration=5.0 if self.tiny else 30.0,
        )
        return base, {"seed": self.seeds(2 if self.tiny else 6)}

    def setup(self) -> None:
        reference_dir = self.fresh_dir("serial")
        with self.region() as serial:
            self.sweep(reference_dir, executor="serial")
        self.serial_s = serial.norm_s
        self.reference = cache_files(reference_dir)
        shutil.rmtree(reference_dir, ignore_errors=True)

    def prepare(self) -> None:
        self.pass_dir = self.fresh_dir("pass")

    def run(self) -> None:
        self.walls: Dict[str, float] = {}
        self.first_cell: Dict[str, float] = {}
        self.sweeps: Dict[str, Any] = {}
        # The queue's worker processes inherit fd 2 and log every cell.
        with open(self.pass_dir / "stderr.log", "wb") as log:
            saved_stderr = os.dup(2)
            os.dup2(log.fileno(), 2)
            try:
                for name in self.executors:
                    self._run_under(name)
            finally:
                os.dup2(saved_stderr, 2)
                os.close(saved_stderr)

    def _run_under(self, name: str) -> None:
        started = time.perf_counter()

        def progress(done: int, total: int, cell: Any) -> None:
            if done == 1:
                self.first_cell[name] = time.perf_counter() - started

        self.sweeps[name] = self.sweep(
            self.pass_dir / f"{name}-cache",
            executor=name,
            parallel=self.parallel,
            progress=progress,
            queue_dir=str(self.pass_dir / "queue") if name == "queue" else None,
        )
        self.walls[name] = time.perf_counter() - started

    def layers(self) -> Dict[str, float]:
        cells = self.grid_cells
        pool, queue = self.walls["pool"], self.walls["queue"]
        self.result = self.sweeps["pool"]
        out = super().layers()
        out.update({
            "scenarios.executors.serial_cells_per_s": cells / self.serial_s,
            "scenarios.executors.pool_cells_per_s": cells / pool,
            "scenarios.executors.queue_cells_per_s": cells / queue,
            "scenarios.executors.pool_efficiency": (
                self.serial_s / (self.parallel * pool)
            ),
            "scenarios.executors.queue_overhead_ms_per_cell": (
                1e3 * (queue - pool) / cells
            ),
            "scenarios.worker.first_cell_s": self.first_cell.get("queue", 0.0),
        })
        out.update(self._queue_dir_layers())
        return out

    def wall(self, region: Region) -> float:
        """Wall-clock with the cells' simulation seconds load-normalised.

        The worker's CPU is another vCPU than the generator's, so slices
        here say little about it (and fight it when they share one): run
        medians spread 24 % raw and as much divided by the slices.  What
        the worker itself timed inside each cell is instead replaced by
        what the same cells took in the serial reference, which ran under
        the calibrator; fork, spawn, lease traffic, fsyncs and polling
        stay as measured.
        """
        simulated = sum(
            cell.elapsed_seconds
            for sweep in self.sweeps.values()
            for cell in sweep.cells
        )
        return region.raw_s - simulated + len(self.executors) * self.serial_s

    def _queue_dir_layers(self) -> Dict[str, float]:
        """Retries and a read-only fsck audit of the finished queue dir."""
        try:
            from repro.scenarios import FileQueue, fsck_audit
        except ImportError:
            return {}
        queue_dir = self.pass_dir / "queue"
        retries = sum(FileQueue(queue_dir).failure_counts().values())
        started = time.perf_counter()
        fsck_audit(queue_dir, cache_dir=self.pass_dir / "queue-cache")
        return {
            "scenarios.queue.retries": retries,
            "scenarios.fsck.audit_ms": 1e3 * (time.perf_counter() - started),
        }

    def finish(self) -> Observation:
        bad = 0
        notes = []
        for name in self.executors:
            produced = cache_files(self.pass_dir / f"{name}-cache")
            differing = sum(
                1
                for entry, blob in self.reference.items()
                if produced.get(entry) != blob
            ) + len(set(produced) - set(self.reference))
            differing = max(differing, unfinished_cells(self.sweeps[name]))
            if differing:
                notes.append(
                    f"{name}: {differing} cache entries differ from the "
                    f"serial reference"
                )
            bad += differing
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        return Observation(
            digest=sha256_files(self.reference), bad_cells=bad, notes=notes
        )


# ----------------------------------------------------------------- figures


class FiguresQuick(Workload):
    name = "figures_quick"
    why = (
        "runner.main([fig, --quick, --cache]) for seven figures, cold: what "
        "a user types; experiments/, analysis/, DropTail, the single-flow "
        "harness and the internet-path builders"
    )
    #: a user pays the lazy figure imports on every invocation.
    warmup = False
    figures = ("fig02", "fig03", "fig05", "fig08", "fig18", "fig19", "fig20")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if self.tiny:
            self.figures = ("fig02", "fig05", "fig19", "fig20")
        # The CLI takes no seed; the seed picks which figure comes first.
        turn = self.seed % len(self.figures)
        self.figures = self.figures[turn:] + self.figures[:turn]
        self.cells = len(self.figures)

    def prepare(self) -> None:
        self.cache_dir = self.fresh_dir("cache")

    def _regenerate(self) -> Tuple[Dict[str, str], Dict[str, float]]:
        stdout: Dict[str, str] = {}
        walls: Dict[str, float] = {}
        for fig in self.figures:
            out, err = io.StringIO(), io.StringIO()
            with self.region() as timed:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = runner.main(
                        [fig, "--quick", "--cache", str(self.cache_dir)]
                    )
            walls[fig] = timed.norm_s
            stdout[fig] = out.getvalue() if status == 0 else f"exit {status}"
        return stdout, walls

    def run(self) -> None:
        self.cold_stdout, self.cold_s = self._regenerate()

    def layers(self) -> Dict[str, float]:
        self.warm_stdout, self.warm_s = self._regenerate()
        out = {}
        for fig in self.figures:
            out[f"experiments.{fig}.cold_s"] = self.cold_s[fig]
            out[f"experiments.{fig}.warm_s"] = self.warm_s[fig]
        return out

    def finish(self) -> Observation:
        if not hasattr(self, "warm_stdout"):
            self.warm_stdout, self.warm_s = self._regenerate()
        changed = [
            fig for fig in self.figures
            if self.warm_stdout[fig] != self.cold_stdout[fig]
            or not self.cold_stdout[fig].strip()
        ]
        digest = {
            fig: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for fig, text in self.cold_stdout.items()
        }
        del self.warm_stdout
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        notes = [f"warm stdout differs from cold: {changed}"] if changed else []
        return Observation(digest=digest, bad_cells=len(changed), notes=notes)


WORKLOADS = {
    cls.name: cls
    for cls in (
        PacketDumbbell,
        PacketTraced,
        LossyPathGrid,
        EquationGridVector,
        CacheWarmReplay,
        FabricPoolQueue,
        FiguresQuick,
    )
}


def mismatched_cells(observed: Digest, golden: Digest, cells: int) -> int:
    """Cells a golden mismatch affects: all of them, or the parts that differ."""
    if isinstance(observed, dict) and isinstance(golden, dict):
        return sum(1 for part, sha in observed.items() if golden.get(part) != sha)
    return 0 if observed == golden else cells


def count_failed(
    observations: List[Observation], golden: Optional[Digest], cells: int
) -> Tuple[int, List[str]]:
    """Failed cells over the passes of one run, and why.

    A pass fails the cells its in-run identity checks reject, all of them
    if it produced other bytes than the run's first pass, and those that
    differ from the committed golden digest where one applies.
    """
    failed, notes = 0, []
    for obs in observations:
        bad = obs.bad_cells
        notes.extend(obs.notes)
        if obs.digest != observations[0].digest:
            bad = cells
            notes.append("two passes of one run produced different bytes")
        if golden is not None:
            off = mismatched_cells(obs.digest, golden, cells)
            if off:
                notes.append(f"{off} cell(s) differ from bench/golden.json")
            bad = max(bad, off)
        failed += min(bad, cells)
    return failed, sorted(set(notes))
