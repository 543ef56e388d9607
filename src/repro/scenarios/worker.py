"""``tfrc-sweep-worker``: drain sweep cells from a shared queue directory.

One worker process serves one queue directory (see
:class:`~repro.scenarios.executors.FileQueue` for the on-disk protocol).
Start any number of workers -- on the coordinating host or on other hosts
mounting the same directory -- and each repeatedly:

1. leases the next claimable cell with an atomic ``tasks/ -> claims/``
   rename (the claim file's mtime is the heartbeat, refreshed by a
   background thread while the cell simulates);
2. rebuilds the :class:`~repro.scenarios.spec.ScenarioSpec` and -- unless
   the result is already in the cell's
   :class:`~repro.scenarios.cache.ResultCache` (crash-resume) -- runs it
   through :func:`~repro.scenarios.executors.execute_cells`, the same
   function every executor runs cells with, and commits what it claimed
   together as one :meth:`~repro.scenarios.cache.ResultCache.put_many`
   group;
3. only then publishes the ``done/`` markers, so the coordinator can
   assemble the sweep purely from the cache.

A failing cell is recorded under ``failures/`` and requeued until its
``max_attempts`` budget is spent; a worker killed mid-cell simply stops
heartbeating and the coordinator reclaims the lease.  ``--cell-timeout``
bounds a single cell's wall-clock execution (a hung simulation becomes a
``timeout`` failure record instead of a worker that never returns), and
idle workers poll the queue with exponential backoff plus jitter up to
``--max-poll-interval`` so a large idle fleet does not hammer a shared
mount in sync.

With ``--vector-batch N`` a worker that claims a cell the lockstep kernel
supports (see :func:`repro.scenarios.vector.lockstep_group`) also claims
up to ``N - 1`` further queued cells from the same group and hands them to
``execute_cells`` together, which advances them as one lockstep batch --
heartbeating every lease, and publishing per-cell completions/failures
exactly as if the cells had run one at a time.  Results are bit-identical
either way.  A batch that fails in lockstep **splits**: each member cell
is retried on the scalar path in-place, so one poison lane costs one cell,
not N.

Under an installed :class:`~repro.scenarios.faults.FaultPlan` (chaos
testing only; see :mod:`repro.scenarios.faults`) the worker additionally
honors the ``worker_kill`` / ``batch_kill`` / ``torn_cache_write`` /
``heartbeat_stall`` / ``clock_skew`` fault sites.

Usage::

    tfrc-sweep-worker SHARED_DIR                    # serve until killed
    tfrc-sweep-worker SHARED_DIR --idle-timeout 60  # exit after 60s idle
    tfrc-sweep-worker SHARED_DIR --once             # drain, then exit
    tfrc-sweep-worker SHARED_DIR --vector-batch 64  # lockstep batches
    tfrc-sweep-worker SHARED_DIR --cell-timeout 900 # bound hung cells
"""

from __future__ import annotations

import argparse
import math
import os
import random
import socket
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, List, Optional

from repro.scenarios import faults
from repro.scenarios.cache import ResultCache
from repro.scenarios._fsio import read_json
from repro.scenarios.executors import FileQueue, execute_cells
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.vector import lockstep_group


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _log(worker_id: str, message: str) -> None:
    print(f"[sweep-worker {worker_id}] {message}", file=sys.stderr, flush=True)


def _claim_batch_mates(
    fq: FileQueue, worker_id: str, primary: dict, limit: int
) -> list:
    """Lease up to ``limit`` queued tasks batchable with ``primary``.

    A mate must name the same scenario module and cache directory and
    share the primary's :func:`~repro.scenarios.vector.lockstep_group`
    (the predicate the local executor batches by).  Task payloads are
    screened *before* the claim rename, so incompatible tasks are never
    leased and released (which would churn other workers' scans); the
    post-rename payload is re-checked because an enqueue may have
    overwritten the task in between.

    **Suspected-poison isolation**: a retried cell (``attempts > 0``) is
    never batched -- not as a mate, and not as a primary (enforced by the
    caller).  A cell that already took a batch down with it would
    otherwise keep spending its innocent mates' retry budgets on every
    round; solo retries bound the blast radius to the cell itself.
    """
    try:
        group = lockstep_group(ScenarioSpec.from_dict(primary["spec"]))
    except Exception:
        return []
    if group is None:
        return []

    def compatible(payload: Optional[dict]) -> bool:
        if not payload or payload.get("key") == primary["key"]:
            return False
        if int(payload.get("attempts", 0)) > 0:
            return False  # suspected poison: retries run solo
        if payload.get("module") != primary["module"]:
            return False
        if payload.get("cache_dir") != primary["cache_dir"]:
            return False
        try:
            spec = ScenarioSpec.from_dict(payload["spec"])
            return lockstep_group(spec) == group
        except Exception:
            return False

    mates = []
    for task in sorted(fq.tasks.glob("*.json")):
        if len(mates) >= limit:
            break
        if not compatible(read_json(task)):
            continue
        claimed = fq.claim_task(task, worker_id)
        if claimed is not None and compatible(claimed[1]):
            mates.append(claimed)
        elif claimed is not None:
            # The task changed between screening and claiming: put it back.
            fq.release_claim(claimed[0], worker_id)
            fq.enqueue(claimed[1])
    return mates


def _fail_cell(
    fq: FileQueue,
    claim: Path,
    payload: dict,
    *,
    worker_id: str,
    kind: str,
    error: str,
    released: set,
    verbose: bool,
) -> None:
    """Record one cell's failure; requeue it while its budget lasts."""
    key = payload["key"]
    attempts = int(payload.get("attempts", 0))
    max_attempts = int(payload.get("max_attempts", 1))
    fq.record_failure(
        key,
        worker=worker_id,
        kind=kind,
        error=error,
        attempts=attempts + 1,
    )
    if attempts + 1 < max_attempts:
        # Release the lease BEFORE republishing the task: enqueueing first
        # opens a race where another worker claims the new task (rename
        # onto our still-present claim path) and a later unlink of ours
        # would delete *its* fresh lease.  For the same reason the final
        # cleanup in process_one must not touch the path again once it is
        # released here.
        fq.release_claim(claim, worker_id)
        released.add(key)
        requeued = dict(payload)
        requeued["attempts"] = attempts + 1
        fq.enqueue(requeued)
    if verbose:
        _log(
            worker_id,
            f"cell {key} failed "
            f"(attempt {attempts + 1}/{max_attempts}, {kind}):\n{error}",
        )


def process_one(
    fq: FileQueue,
    *,
    worker_id: str,
    heartbeat_interval: float = 5.0,
    verbose: bool = True,
    batch_limit: int = 1,
    cell_timeout: Optional[float] = None,
) -> Optional[bool]:
    """Claim and execute one cell (or, with ``batch_limit`` > 1, one
    lockstep batch of compatible cells).

    Returns True on success, False on a recorded failure (or a simulated
    worker kill), None when there was nothing claimable.
    """
    claimed = fq.claim_next(worker_id)
    if claimed is None:
        return None
    claims = [claimed]
    if batch_limit > 1 and int(claimed[1].get("attempts", 0)) == 0:
        claims.extend(
            _claim_batch_mates(fq, worker_id, claimed[1], batch_limit - 1)
        )

    stop = threading.Event()
    stall_until: dict = {}

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            for claim, payload in claims:
                key = payload["key"]
                attempt = int(payload.get("attempts", 0))
                if faults.active() is not None:
                    stall = faults.heartbeat_stalled(key, attempt)
                    if stall > 0.0:
                        deadline = stall_until.setdefault(
                            key, time.monotonic() + stall
                        )
                        if time.monotonic() < deadline:
                            continue  # silent: the lease is left to expire
                    skewed = faults.skewed_claim_time(key, attempt)
                    if skewed is not None:
                        # A skewed worker stamps explicit (past) times
                        # instead of touching the file.
                        try:
                            os.utime(claim, (skewed, skewed))
                        except OSError:
                            pass
                        continue
                fq.heartbeat(claim)

    heartbeater = threading.Thread(target=beat, daemon=True)
    heartbeater.start()
    released: set = set()
    settled: set = set()  # keys with a done marker or failure record
    abandoned = False
    try:
        for _claim, payload in claims:
            if faults.fires(
                "worker_kill", payload["key"], int(payload.get("attempts", 0))
            ):
                raise faults.WorkerKilled(f"worker_kill on {payload['key']}")
        # Batch mates share the primary's module and cache directory
        # (_claim_batch_mates), so one cache serves the whole claimed batch.
        cache = ResultCache(fq.resolve_cache_dir(claims[0][1]["cache_dir"]))
        pending = []  # (claim, payload, spec) not yet in cache
        for claim, payload in claims:
            spec = ScenarioSpec.from_dict(payload["spec"])
            if cache.get(spec) is not None:
                fq.complete(
                    payload["key"],
                    worker=worker_id,
                    elapsed_seconds=0.0,
                    attempts=int(payload.get("attempts", 0)),
                    cached=True,
                )
                settled.add(payload["key"])
                if verbose:
                    _log(worker_id, f"finished {payload['key']} (cache)")
            else:
                pending.append((claim, payload, spec))
        ok = True
        if pending:
            if len(pending) > 1:
                # batch_kill is evaluated per member cell: a batch
                # containing any marked cell dies whole (one process ran
                # all N lanes).
                for _claim, payload, _spec in pending:
                    if faults.fires(
                        "batch_kill",
                        payload["key"],
                        int(payload.get("attempts", 0)),
                    ):
                        raise faults.WorkerKilled(
                            f"batch_kill on {payload['key']} mid lockstep "
                            f"batch of {len(pending)}"
                        )
            outcomes = execute_cells(
                claims[0][1]["module"],
                [spec for _claim, _payload, spec in pending],
                cell_timeout=cell_timeout,
            )
            commit = []  # (spec, result): the batch's group commit
            finished = []  # (payload, elapsed): done markers owed
            for (claim, payload, spec), (result, elapsed, error) in zip(
                pending, outcomes
            ):
                key = payload["key"]
                if error is not None:
                    kind, detail = error
                    _fail_cell(
                        fq,
                        claim,
                        payload,
                        worker_id=worker_id,
                        kind=kind,
                        error=detail,
                        released=released,
                        verbose=verbose,
                    )
                    settled.add(key)
                    ok = False
                    continue
                if faults.fires(
                    "torn_cache_write", key, int(payload.get("attempts", 0))
                ):
                    # Simulated crash mid cache commit: a truncated entry
                    # lands at the final path, then the done marker still
                    # publishes -- the coordinator must detect the
                    # corruption (checksum), quarantine the entry, and
                    # re-execute the cell.
                    faults.write_torn(
                        cache.entry_path(spec), cache.serialize(spec, result)
                    )
                else:
                    commit.append((spec, result))
                finished.append((payload, elapsed))
            # The batch's successes commit as one group, and only then does
            # any done/ marker publish: a marker never outruns its result.
            cache.put_many(commit)
            for payload, elapsed in finished:
                key = payload["key"]
                fq.complete(
                    key,
                    worker=worker_id,
                    elapsed_seconds=elapsed,
                    attempts=int(payload.get("attempts", 0)),
                    cached=False,
                )
                settled.add(key)
                if verbose:
                    batched = (
                        f", batch of {len(pending)}" if len(pending) > 1 else ""
                    )
                    _log(
                        worker_id,
                        f"finished {key} ({elapsed:.1f}s{batched})",
                    )
        return ok
    except faults.WorkerKilled as kill:
        # Simulated hard death (chaos testing): stop heartbeating and
        # abandon every lease *without* releasing it or recording failures
        # -- exactly the state a kill -9 leaves.  The leases expire and the
        # coordinator reclaims them; this worker loop survives to serve
        # other cells, as a replacement worker would.
        stop.set()
        heartbeater.join()
        abandoned = True
        if verbose:
            _log(
                worker_id,
                f"[fault] simulated kill ({kill}); abandoning "
                f"{len(claims)} lease(s) to expire",
            )
        return False
    except Exception:
        # Stop heartbeating before any lease is released: a released path
        # may be renamed onto by another worker's fresh claim, which our
        # beat thread must not touch.
        stop.set()
        heartbeater.join()
        error = traceback.format_exc()
        for claim, payload in claims:
            if payload["key"] in settled:
                continue
            _fail_cell(
                fq,
                claim,
                payload,
                worker_id=worker_id,
                kind="error",
                error=error,
                released=released,
                verbose=verbose,
            )
        return False
    finally:
        stop.set()
        heartbeater.join()
        if not abandoned:
            for claim, payload in claims:
                if payload["key"] not in released:
                    fq.release_claim(claim, worker_id)


def drain(
    queue_dir: str,
    *,
    worker_id: Optional[str] = None,
    poll_interval: float = 0.5,
    max_poll_interval: Optional[float] = None,
    idle_timeout: Optional[float] = None,
    heartbeat_interval: float = 5.0,
    max_cells: Optional[int] = None,
    once: bool = False,
    verbose: bool = True,
    batch_limit: int = 1,
    cell_timeout: Optional[float] = None,
) -> int:
    """Serve ``queue_dir`` until an exit condition; returns cells executed.

    Exit conditions: ``once`` (queue found empty), ``idle_timeout`` seconds
    without anything claimable, or ``max_cells`` processed.  With none of
    them, serve until killed -- lease reclaim makes a hard kill safe.

    Idle polling backs off exponentially from ``poll_interval`` up to
    ``max_poll_interval`` (default ``max(poll_interval, 10)``) with
    uniform jitter, so a fleet of idle workers sharing one mount neither
    scans it at full rate forever nor synchronizes into stampedes; any
    claimed cell resets the backoff.
    """
    worker_id = worker_id or default_worker_id()
    fq = FileQueue(queue_dir).ensure()
    executed = 0
    idle_since: Optional[float] = None
    cap = (
        max_poll_interval
        if max_poll_interval is not None
        else max(poll_interval, 10.0)
    )
    delay = poll_interval
    jitter = random.Random(worker_id)  # per-worker decorrelation only
    while True:
        outcome = process_one(
            fq,
            worker_id=worker_id,
            heartbeat_interval=heartbeat_interval,
            verbose=verbose,
            batch_limit=batch_limit,
            cell_timeout=cell_timeout,
        )
        if outcome is None:
            if once:
                break
            now = time.monotonic()
            idle_since = idle_since if idle_since is not None else now
            if idle_timeout is not None and now - idle_since >= idle_timeout:
                break
            sleep_for = jitter.uniform(0.5 * delay, delay)
            if idle_timeout is not None:
                # Never sleep past the idle deadline.
                sleep_for = min(
                    sleep_for, max(0.0, idle_since + idle_timeout - now)
                )
            time.sleep(sleep_for)
            delay = min(cap, delay * 2.0)
            continue
        idle_since = None
        delay = poll_interval
        executed += 1
        if max_cells is not None and executed >= max_cells:
            break
    return executed


def _positive(number: type) -> Callable[[str], float]:
    """argparse ``type=``: a finite ``number`` > 0.  Written ``not (x > 0)``:
    every comparison is false for NaN, which ``x <= 0`` therefore lets by."""

    def parse(text: str) -> float:
        value = number(text)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(text)
        return value

    parse.__name__ = f"finite positive {number.__name__}"  # argparse quotes it
    return parse


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tfrc-sweep-worker",
        description="Drain TFRC sweep cells from a (shared) queue directory "
        "written by SweepRunner's file-queue executor.",
    )
    parser.add_argument(
        "queue_dir",
        help="queue directory (may be a shared mount used by other hosts)",
    )
    parser.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="identity recorded in claims/completions "
        "(default: <hostname>-<pid>)",
    )
    parser.add_argument(
        "--poll-interval", type=_positive(float), default=0.5, metavar="S",
        help="initial seconds between queue scans while idle; backs off "
        "exponentially with jitter while nothing is claimable "
        "(default: 0.5)",
    )
    parser.add_argument(
        "--max-poll-interval", type=_positive(float), default=None, metavar="S",
        help="cap on the idle-poll backoff "
        "(default: max(--poll-interval, 10))",
    )
    parser.add_argument(
        "--idle-timeout", type=_positive(float), default=None, metavar="S",
        help="exit after this many seconds with nothing claimable "
        "(default: serve until killed)",
    )
    parser.add_argument(
        "--heartbeat", type=_positive(float), default=5.0, metavar="S",
        help="lease heartbeat interval; must be well below the "
        "coordinator's lease timeout (default: 5)",
    )
    parser.add_argument(
        "--max-cells", type=_positive(int), default=None, metavar="N",
        help="exit after executing N cells",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="exit as soon as the queue is found empty",
    )
    parser.add_argument(
        "--vector-batch", type=_positive(int), default=1, metavar="N",
        help="when a claimed cell supports the lockstep vector kernel, "
        "also claim up to N-1 compatible queued cells and advance them "
        "as one batch (default: 1 = one cell at a time)",
    )
    parser.add_argument(
        "--cell-timeout", type=_positive(float), default=None, metavar="S",
        help="wall-clock bound on one cell's execution; a cell exceeding "
        "it gets a 'timeout' failure record and is requeued within its "
        "retry budget (default: unbounded)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell log lines"
    )
    args = parser.parse_args(argv)
    if (
        args.max_poll_interval is not None
        and args.max_poll_interval < args.poll_interval
    ):
        parser.error("--max-poll-interval must be >= --poll-interval")

    worker_id = args.worker_id or default_worker_id()
    if not args.quiet:
        _log(worker_id, f"serving {args.queue_dir}")
    executed = drain(
        args.queue_dir,
        worker_id=worker_id,
        poll_interval=args.poll_interval,
        max_poll_interval=args.max_poll_interval,
        idle_timeout=args.idle_timeout,
        heartbeat_interval=args.heartbeat,
        max_cells=args.max_cells,
        once=args.once,
        verbose=not args.quiet,
        batch_limit=args.vector_batch,
        cell_timeout=args.cell_timeout,
    )
    if not args.quiet:
        _log(worker_id, f"exiting after {executed} cell(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
