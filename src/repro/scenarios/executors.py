"""Sweep execution: one place a cell runs, two transports around it.

:class:`~repro.scenarios.sweep.SweepRunner` expands a grid into cells and
hands the cache-missing ones to a :class:`SweepExecutor`, which yields
:class:`CellCompletion` records as cells finish (in completion order; the
runner reassembles expansion order).  Every backend executes cells through
the same function, :func:`execute_cells` -- scalar for one cell, one
lockstep batch (split to scalar retries on failure) for several -- and
commits what executed together as one
:meth:`~repro.scenarios.cache.ResultCache.put_many` group before delivering
it, so a completion always names a result already durable in the cache.
Backends differ only in how cells reach that function:

* :class:`LocalExecutor` -- this host: in-process or a
  ``concurrent.futures.ProcessPoolExecutor`` fan-out, scalar or lockstep
  batches.  The names ``"serial"``, ``"pool"`` and ``"vector"`` are three
  of its configurations (:data:`EXECUTOR_FACTORIES`).
* :class:`FileQueueExecutor` -- coordinates any number of worker processes
  through a shared **queue directory** (on-disk protocol:
  :class:`~repro.scenarios.filequeue.FileQueue`): its own children (forked
  where the platform forks, so born with its loaded modules and scenario
  registry) and/or ``tfrc-sweep-worker`` processes started by hand on any
  host, each leasing one cell at a time.  Results land in the spec-hash
  :class:`~repro.scenarios.cache.ResultCache`, so the coordinator assembles
  the sweep purely from cache and a crashed run resumes without recomputing
  finished cells.  Its ``run_cells`` publishes the cells, then alternates
  collecting ``done/`` markers with housekeeping: reclaim expired leases,
  enforce the retry budget (``max_attempts`` spans worker errors, timeouts,
  corrupt publications and lease expiries), republish stranded cells, watch
  the local workers.  A cell that exhausts the budget is written to
  ``quarantine/`` with its failure history, then either aborts the sweep
  (``on_poison="raise"``, the default) or is skipped so the rest of the
  sweep completes (``on_poison="quarantine"``).

Every cell's spec -- including its seed -- is fixed at grid-expansion time,
so all backends produce byte-identical results for the same sweep (pinned
by ``tests/test_executors.py``; ``tests/test_chaos.py`` re-pins it under a
seeded :mod:`~repro.scenarios.faults` fault schedule).

A cell failure surfaces as :class:`SweepCellError` naming the cell and its
overrides; the runner attaches the partial :class:`SweepResult` (cached and
already-finished cells) to the exception before re-raising.
"""

from __future__ import annotations

import argparse
import importlib
import math
import multiprocessing
import os
import signal
import sys
import threading
import time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.scenarios import faults
from repro.scenarios._fsio import read_json
from repro.scenarios.cache import ResultCache
from repro.scenarios.filequeue import FileQueue
from repro.scenarios.spec import JsonDict, ScenarioSpec, run_scenario
from repro.scenarios.vector import (
    VectorFallbackWarning,
    lockstep_group,
    run_vector_batch,
    vector_capability,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.scenarios.sweep import SweepCell, SweepResult


class SweepCellError(RuntimeError):
    """A sweep cell failed (execution error or exhausted retry budget).

    ``cell``/``overrides`` name the failing grid point; ``partial`` is the
    :class:`~repro.scenarios.sweep.SweepResult` holding every cell that did
    finish (cached hits included), attached by the runner so a long sweep's
    completed work survives the exception.  When the file-queue fabric
    dead-lettered the cell, ``quarantine_path`` names its record under the
    queue's ``quarantine/`` directory and ``failures`` carries the cell's
    failure records (kind, worker, error) in order.
    """

    def __init__(
        self,
        message: str,
        *,
        cell: Optional["SweepCell"] = None,
        overrides: Optional[Dict[str, Any]] = None,
        partial: Optional["SweepResult"] = None,
        failures: Optional[List[JsonDict]] = None,
        quarantine_path: Optional[Path] = None,
    ) -> None:
        super().__init__(message)
        self.cell = cell
        self.overrides = dict(overrides or {})
        self.partial = partial
        self.failures = list(failures or [])
        self.quarantine_path = quarantine_path


@dataclass
class SweepPlan:
    """What an executor needs to run the cache-missing cells of one sweep."""

    cells: Sequence["SweepCell"]
    module_name: str
    cache: Optional[ResultCache] = None


@dataclass
class CellCompletion:
    """One finished cell, yielded by executors in completion order.

    A completion is delivered **committed**: when the plan has a cache, the
    result is already durable in it (the local executor commits each
    executed group in the parent process, file-queue workers commit theirs).
    ``result`` is None only for a **quarantined** poison cell (the queue
    executor running with ``on_poison="quarantine"``): the cell exhausted
    its retry budget, its dead-letter record landed in ``quarantine/``,
    and the sweep moved on without it.
    """

    cell: "SweepCell"
    result: Optional[JsonDict]
    elapsed_seconds: float = 0.0
    worker: str = ""
    #: True when the cell was dead-lettered instead of finished.
    quarantined: bool = False
    #: last recorded failure message for a quarantined cell.
    failure: str = ""
    #: failed attempts before the one that finished (file queue only);
    #: ``max_attempts`` for a quarantined cell.
    attempts: int = 0
    #: the ``kind`` of each of those failed attempts' records, oldest first.
    failure_kinds: List[str] = field(default_factory=list)


class SweepExecutor:
    """Base class: executes a :class:`SweepPlan`, yielding completions."""

    def run_cells(self, plan: SweepPlan) -> Iterator[CellCompletion]:
        raise NotImplementedError

    def describe(self, cells: int) -> str:
        """What ``SweepResult.executor`` says ran a plan of ``cells`` cells."""
        return type(self).__name__


class CellTimeout(Exception):
    """A cell exceeded the worker's ``--cell-timeout`` wall-clock bound."""


@contextmanager
def _cell_alarm(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`CellTimeout` in the body after ``seconds`` of wall time.

    Implemented with ``SIGALRM``/``setitimer``, which only works in the
    main thread of the main interpreter; elsewhere (or on platforms
    without ``SIGALRM``, or with no bound set) this is a no-op -- the
    timeout is an operational guard for real worker processes, not a hard
    real-time contract.
    """
    if (
        seconds is None
        or seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum: int, frame: object) -> None:
        raise CellTimeout(
            f"cell execution exceeded the {seconds:.1f}s wall-clock bound "
            f"(--cell-timeout)"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: one executed cell: ``(result, elapsed_seconds, failure)``; ``failure`` is
#: None or ``(kind, detail)`` -- the failure-record kind (``"timeout"`` or
#: ``"error"``) and the timeout message / formatted traceback.
CellOutcome = Tuple[Optional[JsonDict], float, Optional[Tuple[str, str]]]


def execute_cells(
    module_name: str,
    specs: Sequence[ScenarioSpec],
    *,
    cell_timeout: Optional[float] = None,
) -> List[CellOutcome]:
    """Run ``specs`` in this process: the one place a sweep cell executes.

    Module-level, hence picklable: :class:`LocalExecutor` calls it directly
    or through a process pool, ``tfrc-sweep-worker`` on the cell it leased.
    One spec runs scalar.  Several specs (which the caller vouches share a
    :func:`~repro.scenarios.vector.lockstep_group`) get one lockstep
    attempt; a batch that fails -- any exception, a timeout included --
    **splits** and every member retries scalar, so one poison lane fails
    one cell instead of all N.  ``cell_timeout`` bounds each attempt.

    ``elapsed_seconds`` is the wall inside ``run_scenario`` for a scalar
    cell and the batch wall split evenly for a lockstep batch (the lanes
    genuinely ran concurrently) -- never import, cache or commit time.

    The import re-populates the registry in spawn-started workers (under
    fork it is a no-op lookup).  Its failure propagates, as does
    :class:`~repro.scenarios.faults.WorkerKilled` (chaos testing; a
    ``BaseException``, so no handler here sees it: a killed worker runs
    nothing).
    """
    importlib.import_module(module_name)
    if len(specs) > 1:
        started = time.perf_counter()
        try:
            with _cell_alarm(cell_timeout):
                results = run_vector_batch(specs)
        except Exception as exc:
            warnings.warn(
                f"vector batch of {len(specs)} cell(s) failed in lockstep "
                f"({exc}); retrying each cell on the scalar path",
                VectorFallbackWarning,
                stacklevel=2,
            )
        else:
            per_cell = (time.perf_counter() - started) / len(specs)
            return [(result, per_cell, None) for result in results]
    outcomes: List[CellOutcome] = []
    for spec in specs:
        result = failure = None
        started = time.perf_counter()
        try:
            with _cell_alarm(cell_timeout):
                result = run_scenario(spec)
        except CellTimeout as exc:
            failure = ("timeout", str(exc))
        except Exception:
            failure = ("error", traceback.format_exc())
        outcomes.append((result, time.perf_counter() - started, failure))
    return outcomes


class LocalExecutor(SweepExecutor):
    """Run cells on this host; ``"serial"``, ``"pool"`` and ``"vector"`` are
    three of its configurations (:data:`EXECUTOR_FACTORIES`).

    ``workers`` is the transport: 0 runs in this process, N fans out over a
    ``ProcessPoolExecutor`` of at most N.  ``batch_limit`` is the batching:
    1 runs every cell alone; a larger limit (None = unbounded) lets cells
    sharing a :func:`~repro.scenarios.vector.lockstep_group` advance as one
    batch, while the rest still run scalar, announced by a single
    :class:`VectorFallbackWarning` naming the first reason.

    A failing cell cancels the groups not yet started and raises
    :class:`SweepCellError`, chained to a ``RuntimeError`` carrying the
    cell's formatted traceback.
    """

    def __init__(
        self, *, workers: int = 0, batch_limit: Optional[int] = 1
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if batch_limit is not None and batch_limit < 1:
            raise ValueError("batch_limit must be >= 1 (or None)")
        self.workers = workers
        self.batch_limit = batch_limit

    def describe(self, cells: int) -> str:
        batching = "" if self.batch_limit == 1 else "vector"
        if not self.workers:
            return batching or "serial"
        # run_cells starts one process per group at most; scalar groups
        # are single cells.
        return f"pool x{min(self.workers, cells)} {batching}".rstrip()

    def _groups(self, cells: Sequence["SweepCell"]) -> List[List["SweepCell"]]:
        """Partition ``cells`` into the groups ``execute_cells`` runs."""
        if self.batch_limit == 1:
            return [[cell] for cell in cells]
        batches: Dict[str, List["SweepCell"]] = {}
        scalar: List["SweepCell"] = []
        for cell in cells:
            group = lockstep_group(cell.spec)
            if group is None:
                scalar.append(cell)
            else:
                batches.setdefault(group, []).append(cell)
        if scalar:
            warnings.warn(
                f"{len(scalar)} of {len(cells)} sweep cell(s) cannot run on "
                f"the vector kernel and fall back to scalar execution; "
                f"first reason: {vector_capability(scalar[0].spec)}",
                VectorFallbackWarning,
                stacklevel=3,
            )
        groups: List[List["SweepCell"]] = []
        for batch in batches.values():
            step = self.batch_limit or len(batch)
            groups += [batch[i : i + step] for i in range(0, len(batch), step)]
        return groups + [[cell] for cell in scalar]

    def run_cells(self, plan: SweepPlan) -> Iterator[CellCompletion]:
        groups = self._groups(plan.cells)
        specs = [[cell.spec for cell in group] for group in groups]
        if not self.workers:
            for group, group_specs in zip(groups, specs):
                outcomes = execute_cells(plan.module_name, group_specs)
                yield from _commit_group(plan.cache, group, outcomes, "")
            return
        workers = max(1, min(self.workers, len(groups)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(execute_cells, plan.module_name, group_specs): group
                for group, group_specs in zip(groups, specs)
            }
            try:
                for future in as_completed(futures):
                    group = futures[future]
                    try:
                        outcomes = future.result()
                    except Exception:
                        # The worker died or could not import the scenario
                        # module: every cell of the group failed.
                        failure = ("error", traceback.format_exc())
                        outcomes = [(None, 0.0, failure)] * len(group)
                    yield from _commit_group(
                        plan.cache, group, outcomes, " in a pool worker"
                    )
            finally:
                for future in futures:
                    future.cancel()


def _commit_group(
    cache: Optional[ResultCache],
    group: Sequence["SweepCell"],
    outcomes: Sequence[CellOutcome],
    where: str,
) -> Iterator[CellCompletion]:
    """Commit an executed group's successes as one cache group commit (in
    this, the parent, process -- it owns every local cache write), then
    deliver its cells in order.  A failed member raises only after its
    successful mates are in the cache: the one place a local cell failure
    becomes :class:`SweepCellError`.
    """
    if cache is not None:
        cache.put_many(
            [
                (cell.spec, result, cell.key)
                for cell, (result, _elapsed, failure) in zip(group, outcomes)
                if failure is None
            ]
        )
    for cell, (result, elapsed, failure) in zip(group, outcomes):
        if failure is not None:
            raise SweepCellError(
                f"sweep cell {cell.describe()} failed{where}: "
                f"{failure[1].strip().splitlines()[-1]}",
                cell=cell,
                overrides=cell.overrides,
            ) from RuntimeError(failure[1])
        yield CellCompletion(cell=cell, result=result, elapsed_seconds=elapsed)


# ------------------------------------------------------ file-queue transport

#: seconds without progress, with no lease live and no local workers, after
#: which the coordinator prints a "start tfrc-sweep-worker" hint (once).
STALL_WARNING_SECONDS = 30.0


@dataclass
class _QueueRun:
    """What the steps of one :meth:`FileQueueExecutor.run_cells` share."""

    fq: FileQueue
    cache: ResultCache
    module_name: str
    #: the cache root as task payloads name it (relative to the queue root
    #: when under it)
    cache_dir: str
    #: unfinished cells by queue key (a grid may name one cell twice)
    remaining: Dict[str, List["SweepCell"]]
    procs: List[multiprocessing.Process] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    last_progress: float = field(default_factory=time.monotonic)
    stall_warned: bool = False
    dead_worker_rounds: int = 0


class FileQueueExecutor(SweepExecutor):
    """Coordinate sweep cells across worker processes via a queue directory.

    The coordinator enqueues the pending cells, optionally starts
    ``local_workers`` children running ``tfrc-sweep-worker``'s ``main``
    (:meth:`_spawn_local_workers` says what they inherit), and then only
    watches the queue: completions are read from ``done/`` markers plus the
    result cache, stale leases (claim age measured against the queue
    directory's own clock, :meth:`FileQueue.fs_now`) are reclaimed and
    requeued, and a cell whose failure count reaches ``max_attempts`` is
    dead-lettered into ``quarantine/`` -- then either aborts the sweep
    with :class:`SweepCellError` (``on_poison="raise"``, the default) or
    is skipped as a quarantined :class:`CellCompletion` so the remaining
    cells still finish (``on_poison="quarantine"``).  Any externally
    started workers -- other terminals, other hosts sharing the directory
    -- drain the same queue concurrently.

    ``cell_timeout`` is forwarded to the local workers as
    ``--cell-timeout``.  ``lease_timeout``, ``poll_interval`` and
    ``cell_timeout`` are seconds: finite and > 0.
    """

    def __init__(
        self,
        queue_dir: "str | os.PathLike[str]",
        *,
        local_workers: int = 0,
        lease_timeout: float = 60.0,
        poll_interval: float = 0.1,
        max_attempts: int = 3,
        on_poison: str = "raise",
        cell_timeout: Optional[float] = None,
    ) -> None:
        if queue_dir is None:
            raise ValueError("the queue executor requires a queue_dir")
        if local_workers < 0:
            raise ValueError("local_workers must be >= 0")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if on_poison not in ("raise", "quarantine"):
            raise ValueError("on_poison must be 'raise' or 'quarantine'")
        waits = {"lease_timeout": lease_timeout, "poll_interval": poll_interval}
        if cell_timeout is not None:
            waits["cell_timeout"] = cell_timeout
        for name, seconds in waits.items():
            # `not (x > 0)`, not `x <= 0`: every comparison is false for NaN.
            if not (math.isfinite(seconds) and seconds > 0):
                raise ValueError(f"{name} must be finite and > 0, got {seconds!r}")
        self.queue_dir = Path(queue_dir)
        self.local_workers = local_workers
        self.lease_timeout = lease_timeout
        self.poll_interval = poll_interval
        self.max_attempts = max_attempts
        self.on_poison = on_poison
        self.cell_timeout = cell_timeout

    def describe(self, cells: int) -> str:
        return f"queue x{self.local_workers}"

    # ----------------------------------------------------- local workers

    def _spawn_local_workers(self) -> List[multiprocessing.Process]:
        """Start local drain processes (same protocol as remote workers).

        Each is a ``multiprocessing`` child running :func:`_local_worker`
        under the platform's default start method, like the local pool's.
        Forked, it begins with the coordinator's loaded modules, scenario
        registry, ``sys.path`` and open stderr instead of booting an
        interpreter and importing them again; spawned, ``multiprocessing``
        carries ``sys.path`` over -- scenarios defined outside installed
        packages (tests, scripts) import in the child either way.  Daemonic,
        so a serve-until-killed worker cannot outlive its coordinator.

        The console entry point, which no local worker passes through any
        more, is covered by ``tests/test_worker_shutdown.py`` (execs ``-m
        repro.scenarios.worker``) and CI's hand-started workers.
        """
        args = [
            "--poll-interval",
            str(max(0.02, self.poll_interval / 2.0)),
            # Keep idle backoff bounded well below the lease timeout so
            # cells requeued after a reclaim are picked up promptly.
            "--max-poll-interval",
            str(max(0.1, min(1.0, self.lease_timeout / 4.0))),
            "--heartbeat",
            str(max(0.05, min(self.lease_timeout / 4.0, 5.0))),
        ]
        if self.cell_timeout is not None:
            args += ["--cell-timeout", str(self.cell_timeout)]
        procs = []
        for index in range(self.local_workers):
            worker_id = f"local-{os.getpid()}-{index}"
            argv = [str(self.queue_dir), "--worker-id", worker_id, *args]
            proc = multiprocessing.Process(
                target=_local_worker, args=(argv,), daemon=True
            )
            proc.start()
            procs.append(proc)
        return procs

    @staticmethod
    def _stop_workers(procs: List[multiprocessing.Process]) -> None:
        for proc in procs:
            proc.terminate()  # a no-op on one that already exited
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - stuck child
                proc.kill()
                proc.join()

    # --------------------------------------------------------- execution

    def run_cells(self, plan: SweepPlan) -> Iterator[CellCompletion]:
        if plan.cache is None:
            raise ValueError(
                "the queue executor needs a result cache (pass cache_dir; "
                "workers deliver results through it)"
            )
        fq = FileQueue(self.queue_dir).ensure()
        run = _QueueRun(
            fq=fq,
            cache=plan.cache,
            module_name=plan.module_name,
            cache_dir=fq.encode_cache_dir(plan.cache.root),
            remaining={},
        )
        for cell in plan.cells:
            run.remaining.setdefault(cell.key, []).append(cell)
        self._publish(run)
        run.procs = self._spawn_local_workers()
        # Housekeeping runs at a coarser cadence than done-marker
        # collection: it is O(remaining cells) of filesystem stats, which
        # on the shared/NFS mounts this executor targets is real metadata
        # traffic, and none of it needs 10 Hz resolution.
        housekeep_every = max(
            self.poll_interval, min(self.lease_timeout / 4.0, 2.0)
        )
        next_housekeeping = time.monotonic()
        try:
            while run.remaining:
                yield from self._collect(run)
                if not run.remaining:
                    break
                if time.monotonic() >= next_housekeeping:
                    next_housekeeping = time.monotonic() + housekeep_every
                    yield from self._housekeep(run)
                time.sleep(self.poll_interval)
        except BaseException:
            # Leave claims (their workers may still finish and warm the
            # cache) but withdraw unclaimed tasks so external workers stop
            # picking up a sweep that already failed.
            for key in run.remaining:
                fq.task_path(key).unlink(missing_ok=True)
            raise
        else:
            if run.quarantined:
                print(
                    f"[sweep-queue] {len(run.quarantined)} poison cell(s) "
                    f"quarantined in {fq.quarantine} (retry budget "
                    f"{self.max_attempts} exhausted): "
                    f"{', '.join(sorted(run.quarantined))}",
                    file=sys.stderr,
                )
        finally:
            self._stop_workers(run.procs)

    def _payload(self, run: _QueueRun, cell: "SweepCell") -> JsonDict:
        return {
            "key": cell.key,
            "module": run.module_name,
            "spec": cell.spec.to_dict(),
            "cache_dir": run.cache_dir,
            "max_attempts": self.max_attempts,
        }

    def _publish(self, run: _QueueRun) -> None:
        """First publication: every unfinished cell claimable, budget fresh."""
        fq = run.fq
        for key, cells in run.remaining.items():
            # A done marker without a cached result (interrupted worker,
            # pruned cache) is stale: clear it so the cell re-runs.
            done = fq.done_path(key)
            if done.exists() and run.cache.get(cells[0].spec, key) is None:
                done.unlink(missing_ok=True)
            if done.exists():
                continue  # finished: the first collection delivers it
            # Every coordinator run grants every unfinished cell a fresh
            # retry budget: failure records left by an earlier aborted run
            # must not poison this one.  Dead letters from the earlier run
            # are cleared with the records they summarize.
            fq.clear_failures(key)
            fq.clear_quarantine(key)
            if fq.claim_path(key).exists():
                # A worker (possibly from a previous run) may still be on
                # it; completion or lease expiry will resolve the claim.
                continue
            leftover = read_json(fq.task_path(key))
            if (
                leftover is not None
                and leftover.get("max_attempts") == self.max_attempts
                and leftover.get("cache_dir") == run.cache_dir
            ):
                continue  # already queued under this run's terms
            # (Re-)publish -- last-wins overwrite.  The tiny window against
            # a concurrent claim of a leftover task can at worst duplicate
            # one idempotent execution.
            fq.enqueue(self._payload(run, cells[0]))

    def _collect(self, run: _QueueRun) -> Iterator[CellCompletion]:
        """Deliver every cell whose done marker and cached result landed.

        One readdir of ``done/`` per poll round; marker JSON is only read
        for cells that actually completed (NFS-friendly: no per-key
        failed-open probing at poll rate).
        """
        fq = run.fq
        for key in sorted(fq.done_keys().intersection(run.remaining)):
            marker = fq.read_done(key)
            if marker is None:
                continue
            worker = str(marker.get("worker", ""))
            first = run.remaining[key][0]
            status, result, defect = run.cache.get_status(first.spec, key)
            if status != "hit":
                # Marker landed but the result did not reach *this* cache
                # intact.  A corrupt entry (torn worker write) is
                # quarantined for inspection; either way the attempt
                # counts against the retry budget: with a cache the
                # workers cannot actually share (e.g. --cache outside the
                # queue dir on a multi-host run) every attempt ends here,
                # and without the budget the cell would re-execute forever.
                if status == "corrupt":
                    run.cache.quarantine(first.spec, key)
                    kind = "corrupt_result"
                    error = (
                        f"done marker published but the cached result is "
                        f"corrupt ({defect}); entry quarantined, cell "
                        f"re-executes"
                    )
                else:
                    kind = "missing_result"
                    error = (
                        "done marker published but no readable cached "
                        "result on the coordinator -- is the cache "
                        "directory shared with the workers?"
                    )
                fq.fail_attempt(
                    self._payload(run, first),
                    fq.done_path(key),
                    worker=worker or "unknown",
                    kind=kind,
                    error=error,
                )
                continue
            # A task republished by lease reclaim (or the liveness
            # backstop) may linger after a duplicate execution completed
            # the cell; withdraw it so workers stop re-claiming finished
            # work.
            fq.task_path(key).unlink(missing_ok=True)
            # The worker releases its lease after the marker; one stopped
            # in between (the sweep's last cell, then _stop_workers) would
            # leave it behind.  Release it for that worker, not for another
            # one that holds a duplicate run of the cell.
            fq.release_claim(fq.claim_path(key), worker)
            run.last_progress = time.monotonic()
            run.stall_warned = False
            attempts = int(marker.get("attempts", 0))
            kinds = _failure_kinds(fq.read_failures(key)) if attempts else []
            for cell in run.remaining.pop(key):
                yield CellCompletion(
                    cell=cell,
                    result=result,
                    elapsed_seconds=float(marker.get("elapsed_seconds", 0.0)),
                    worker=worker,
                    attempts=attempts,
                    failure_kinds=kinds,
                )

    def _housekeep(self, run: _QueueRun) -> Iterator[CellCompletion]:
        """Lease reclaim, budget enforcement, the stranded-cell backstop
        and worker-death detection, in that order."""
        self._reclaim_expired(run)
        yield from self._enforce_budget(run)
        claims_live = self._republish_stranded(run)
        self._watch_workers(run, claims_live)

    def _reclaim_expired(self, run: _QueueRun) -> None:
        """Requeue this sweep's cells whose lease went stale (worker died
        mid-cell); :meth:`FileQueue.stale_leases` says which those are."""
        fq = run.fq
        for key, claim, age, held in fq.stale_leases(self.lease_timeout):
            if key not in run.remaining:
                continue  # another sweep's cell in a shared directory
            fq.fail_attempt(
                self._payload(run, run.remaining[key][0]),
                claim,
                worker=(held or {}).get("worker", "unknown"),
                kind="lease_expired",
                error=f"lease expired after {age:.1f}s "
                f"(timeout {self.lease_timeout:.1f}s); reclaiming",
            )

    def _enforce_budget(self, run: _QueueRun) -> Iterator[CellCompletion]:
        """Dead-letter each cell whose failures reached ``max_attempts``:
        abort the sweep on it, or deliver it quarantined (``on_poison``)."""
        fq = run.fq
        failure_counts = fq.failure_counts()
        for key in list(run.remaining):
            failures = failure_counts.get(key, 0)
            if failures < self.max_attempts:
                continue
            cell = run.remaining[key][0]
            qpath, records = fq.dead_letter(self._payload(run, cell))
            last = records[-1] if records else {}
            detail = str(last.get("error", "")).strip().splitlines()
            last_error = detail[-1] if detail else "unrecorded"
            if self.on_poison != "quarantine":
                raise SweepCellError(
                    f"sweep cell {cell.describe()} failed {failures} "
                    f"time(s) on the file queue (budget "
                    f"{self.max_attempts}); last error: {last_error}; "
                    f"dead-letter record: {qpath}",
                    cell=cell,
                    overrides=cell.overrides,
                    failures=records,
                    quarantine_path=qpath,
                )
            run.quarantined.append(key)
            run.last_progress = time.monotonic()
            for cell in run.remaining.pop(key):
                yield CellCompletion(
                    cell=cell,
                    result=None,
                    quarantined=True,
                    failure=last_error,
                    attempts=self.max_attempts,
                    failure_kinds=_failure_kinds(records),
                )

    def _republish_stranded(self, run: _QueueRun) -> bool:
        """Liveness backstop; returns whether any lease is live.

        A cell no queue state tracks at all (no task, no claim, no done
        marker, budget not spent) is stranded -- its torn publication was
        quarantined by ``claim_task``, or a worker died between dropping
        its claim and republishing.  Republish it; a harmless duplicate in
        the rare race with a just-claiming worker beats a sweep that never
        returns.

        The failure count is read after the claim is seen gone, not taken
        from the round's snapshot: a worker's ``fail_attempt`` records the
        failure before it drops the claim, so a failure that lands between
        the two is counted, and a spent budget is not run again.
        """
        fq = run.fq
        claims_live = False
        for key, cells in run.remaining.items():
            if fq.claim_path(key).exists():
                claims_live = True
            elif (
                not fq.task_path(key).exists()
                and not fq.done_path(key).exists()
                and fq.failure_count(key) < self.max_attempts
            ):
                fq.enqueue(self._payload(run, cells[0]))
        return claims_live

    def _watch_workers(self, run: _QueueRun, claims_live: bool) -> None:
        """Give up once every local worker is dead and nothing else drains
        the queue; hint (once per stall) when nobody ever started one."""
        procs = run.procs
        if (
            procs
            and not any(proc.is_alive() for proc in procs)
            # External workers (other hosts) may still be draining the
            # queue: only give up when no lease is live either -- and only
            # after the condition holds across consecutive rounds, so a
            # poll that lands in the instant between one claim being
            # released and the next being taken (or right as the last cell
            # finishes) cannot kill a healthy sweep.
            and not claims_live
        ):
            run.dead_worker_rounds += 1
            if run.dead_worker_rounds >= 3:
                codes = [proc.exitcode for proc in procs]
                raise SweepCellError(
                    f"all {len(procs)} local sweep workers exited "
                    f"unexpectedly (exit codes {codes}) with "
                    f"{len(run.remaining)} cell(s) unfinished and no "
                    f"external workers active"
                )
        else:
            run.dead_worker_rounds = 0
        if (
            not run.stall_warned
            and time.monotonic() - run.last_progress > STALL_WARNING_SECONDS
            and not claims_live
            and not procs
        ):
            print(
                f"[sweep-queue] {len(run.remaining)} cell(s) queued in "
                f"{self.queue_dir} with no active workers; start "
                f"tfrc-sweep-worker processes pointed at this directory "
                f"(or rerun with local workers)",
                file=sys.stderr,
            )
            run.stall_warned = True


def _local_worker(argv: List[str]) -> None:
    """A local worker process's body: ``tfrc-sweep-worker``'s ``main``.

    First it drops the fault-plan state a fork copied from the coordinator
    (an ``install()``ed plan, or a "none" cached before ``TFRC_FAULT_PLAN``
    was exported): a worker sees the plan the environment names, no other.
    """
    faults.uninstall()
    from repro.scenarios.worker import main  # it imports this module

    sys.exit(main(argv))


def _failure_kinds(records: List[JsonDict]) -> List[str]:
    return [str(record.get("kind", "")) for record in records]


#: what SweepRunner accepts for ``executor=``: a name or an instance.
ExecutorArg = Union[str, SweepExecutor]

#: the one executor table: name -> ``factory(parallel, queue_dir)``.  Three
#: names are :class:`LocalExecutor` configurations (transport x batching);
#: ``"queue"`` is the file-queue transport with ``parallel`` locally spawned
#: workers (0 = rely on externally started ``tfrc-sweep-worker`` processes).
EXECUTOR_FACTORIES: Dict[
    str, Callable[[int, Optional["str | os.PathLike[str]"]], SweepExecutor]
] = {
    "serial": lambda parallel, queue_dir: LocalExecutor(),
    "pool": lambda parallel, queue_dir: LocalExecutor(workers=max(1, parallel)),
    "queue": lambda parallel, queue_dir: FileQueueExecutor(
        queue_dir, local_workers=max(0, parallel)
    ),
    "vector": lambda parallel, queue_dir: LocalExecutor(batch_limit=None),
}

#: the valid ``executor=`` / ``--executor`` names (also used by SweepRunner
#: validation and the experiment CLI's argparse choices).
EXECUTOR_NAMES = tuple(EXECUTOR_FACTORIES)


def resolve_executor(
    executor: Optional[ExecutorArg],
    *,
    parallel: int = 1,
    queue_dir: Optional["str | os.PathLike[str]"] = None,
    pending: Optional[int] = None,
) -> SweepExecutor:
    """Turn ``executor=`` (name, instance, or None) into a backend.

    ``None`` preserves the historical behavior: ``"serial"`` for
    ``parallel=1`` (or a single pending cell), otherwise ``"pool"`` with
    ``parallel`` workers.  A name is looked up in
    :data:`EXECUTOR_FACTORIES`.
    """
    if isinstance(executor, SweepExecutor):
        return executor
    if executor is None:
        single = parallel <= 1 or (pending is not None and pending <= 1)
        executor = "serial" if single else "pool"
    factory = EXECUTOR_FACTORIES.get(executor)
    if factory is None:
        raise ValueError(
            f"unknown executor {executor!r}; choose one of {EXECUTOR_NAMES} "
            f"or pass a SweepExecutor instance"
        )
    return factory(parallel, queue_dir)


def available_cpus() -> int:
    """CPUs this process may run on: what the figure CLI's ``--parallel``
    defaults to (``SweepRunner`` itself keeps ``parallel=1``).

    The scheduler affinity mask where the platform has one -- it honours
    ``taskset`` and cpusets, which ``os.cpu_count()`` does not -- else the
    machine's CPU count; never less than 1.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def positive(number: type) -> Callable[[str], float]:
    """argparse ``type=`` of the fabric CLIs: a finite ``number`` > 0.
    Written ``not (x > 0)``: every comparison is false for NaN, which
    ``x <= 0`` therefore lets by."""

    def parse(text: str) -> float:
        value = number(text)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(text)
        return value

    parse.__name__ = f"finite positive {number.__name__}"  # argparse quotes it
    return parse


def directory(text: str) -> str:
    """argparse ``type=`` of the fabric CLIs' directory arguments: a path
    that is a directory or can become one, i.e. neither it nor any
    ancestor is an existing non-directory.  A missing path passes; the
    caller creates it (or, like ``tfrc-sweep-fsck``, refuses it)."""
    target = Path(text)
    for path in (target, *target.parents):
        if path.is_dir():
            break
        if path.exists():
            under = (
                "" if path == target else f" lies under {str(path)!r}, which"
            )
            raise argparse.ArgumentTypeError(
                f"{text!r}{under} is not a directory"
            )
    return text
