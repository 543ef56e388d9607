"""``tfrc-sweep-worker``: drain sweep cells from a shared queue directory.

One worker process serves one queue directory (see
:class:`~repro.scenarios.filequeue.FileQueue` for the on-disk protocol).
Start any number of workers -- on the coordinating host or on other hosts
mounting the same directory -- and each repeatedly:

1. leases the next claimable cell with an atomic ``tasks/ -> claims/``
   rename (the claim file's mtime is the heartbeat, refreshed by a
   background thread while the cell simulates);
2. rebuilds the :class:`~repro.scenarios.spec.ScenarioSpec` and -- unless
   the result is already in the cell's
   :class:`~repro.scenarios.cache.ResultCache` (crash-resume) -- runs it
   through :func:`~repro.scenarios.executors.execute_cells`, the same
   function every executor runs cells with, and commits the result
   (:meth:`~repro.scenarios.cache.ResultCache.put_many`, a group of one);
3. only then publishes the ``done/`` marker, so the coordinator can
   assemble the sweep purely from the cache.

A failing cell is recorded under ``failures/`` and requeued while those
records number fewer than its ``max_attempts``
(:meth:`~repro.scenarios.filequeue.FileQueue.fail_attempt`; the record
count, read once when the cell is leased, is also the attempt number the
worker logs and stamps on the done marker); a worker killed mid-cell simply
stops heartbeating and the coordinator reclaims the lease.
``--cell-timeout`` bounds a single cell's wall-clock execution (a
hung simulation becomes a ``timeout`` failure record instead of a worker
that never returns), and idle workers poll the queue with exponential
backoff plus jitter up to ``--max-poll-interval`` so a large idle fleet
does not hammer a shared mount in sync.

Under an installed :class:`~repro.scenarios.faults.FaultPlan` (chaos
testing only; see :mod:`repro.scenarios.faults`) the worker additionally
honors the ``worker_kill`` / ``torn_cache_write`` / ``heartbeat_stall`` /
``clock_skew`` fault sites.

Usage::

    tfrc-sweep-worker SHARED_DIR                    # serve until killed
    tfrc-sweep-worker SHARED_DIR --idle-timeout 60  # exit after 60s idle
    tfrc-sweep-worker SHARED_DIR --once             # drain, then exit
    tfrc-sweep-worker SHARED_DIR --cell-timeout 900 # bound hung cells
"""

from __future__ import annotations

import argparse
import os
import random
import socket
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import List, Optional, Tuple

from repro.scenarios import faults
from repro.scenarios.cache import ResultCache
from repro.scenarios.executors import directory, execute_cells, positive
from repro.scenarios.filequeue import FileQueue
from repro.scenarios.spec import ScenarioSpec


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _log(worker_id: str, message: str) -> None:
    print(f"[sweep-worker {worker_id}] {message}", file=sys.stderr, flush=True)


def _heartbeat(
    fq: FileQueue,
    claim: Path,
    key: str,
    attempts: int,
    interval: float,
    stop: threading.Event,
) -> None:
    """Refresh the lease every ``interval`` seconds until ``stop`` is set."""
    stall_until: Optional[float] = None
    while not stop.wait(interval):
        if faults.active() is not None:
            stall = faults.heartbeat_stalled(key, attempts)
            if stall > 0.0:
                if stall_until is None:
                    stall_until = time.monotonic() + stall
                if time.monotonic() < stall_until:
                    continue  # silent: the lease is left to expire
            skewed = faults.skewed_claim_time(key, attempts)
            if skewed is not None:
                # A skewed worker stamps explicit (past) times instead of
                # touching the file.
                try:
                    os.utime(claim, (skewed, skewed))
                except OSError:
                    pass
                continue
        fq.heartbeat(claim)


def _run_leased(
    fq: FileQueue,
    payload: dict,
    key: str,
    attempts: int,
    *,
    worker_id: str,
    cell_timeout: Optional[float],
    verbose: bool,
) -> Optional[Tuple[str, str]]:
    """Execute the leased cell, commit its result, publish its done marker.

    Returns None on success, else the failed attempt's ``(kind, detail)``
    with nothing published.
    """
    if faults.fires("worker_kill", key, attempts):
        raise faults.WorkerKilled(f"worker_kill on {key}")
    cache = ResultCache(fq.resolve_cache_dir(payload["cache_dir"]))
    spec = ScenarioSpec.from_dict(payload["spec"])
    cached = cache.get(spec) is not None  # crash-resume: already committed
    elapsed = 0.0
    if not cached:
        [(result, elapsed, failure)] = execute_cells(
            payload["module"], [spec], cell_timeout=cell_timeout
        )
        if failure is not None:
            return failure
        if faults.fires("torn_cache_write", key, attempts):
            # Simulated crash mid cache commit: a truncated entry lands at
            # the final path, then the done marker still publishes -- the
            # coordinator must detect the corruption (checksum),
            # quarantine the entry, and re-execute the cell.
            faults.write_torn(
                cache.entry_path(spec), cache.serialize(spec, result)
            )
        else:
            cache.put_many([(spec, result)])
    # Only now the marker: it never outruns its result.
    fq.complete(
        key,
        worker=worker_id,
        elapsed_seconds=elapsed,
        attempts=attempts,
        cached=cached,
    )
    if verbose:
        source = "cache" if cached else f"{elapsed:.1f}s"
        _log(worker_id, f"finished {key} ({source})")
    return None


def process_one(
    fq: FileQueue,
    *,
    worker_id: str,
    heartbeat_interval: float = 5.0,
    verbose: bool = True,
    cell_timeout: Optional[float] = None,
) -> Optional[bool]:
    """Claim and execute one cell.

    Returns True on success, False on a recorded failure (or a simulated
    worker kill), None when there was nothing claimable.
    """
    claimed = fq.claim_next(worker_id)
    if claimed is None:
        return None
    claim, payload = claimed
    key = payload["key"]
    attempts = fq.failure_count(key)  # the failure records are the count
    stop = threading.Event()
    heartbeater = threading.Thread(
        target=_heartbeat,
        args=(fq, claim, key, attempts, heartbeat_interval, stop),
        daemon=True,
    )
    heartbeater.start()
    failure = None
    abandoned = False
    try:
        failure = _run_leased(
            fq,
            payload,
            key,
            attempts,
            worker_id=worker_id,
            cell_timeout=cell_timeout,
            verbose=verbose,
        )
    except faults.WorkerKilled as kill:
        # Simulated hard death (chaos testing): abandon the lease
        # *without* releasing it or recording a failure -- exactly the
        # state a kill -9 leaves.  The lease expires and the coordinator
        # reclaims it; this worker loop survives to serve other cells, as
        # a replacement worker would.
        abandoned = True
        if verbose:
            _log(
                worker_id,
                f"[fault] simulated kill ({kill}); abandoning the lease "
                f"to expire",
            )
    except Exception:
        failure = ("error", traceback.format_exc())
    finally:
        # Stop heartbeating before the lease is released: a released path
        # may be renamed onto by another worker's fresh claim, which our
        # beat thread must not touch.
        stop.set()
        heartbeater.join()
        if failure is None and not abandoned:
            fq.release_claim(claim, worker_id)
    if failure is not None:
        kind, error = failure
        fq.fail_attempt(
            payload,
            claim,
            worker=worker_id,
            kind=kind,
            error=error,
            own_lease=True,
        )
        if verbose:
            _log(
                worker_id,
                f"cell {key} failed (attempt {attempts + 1}/"
                f"{int(payload.get('max_attempts', 1))}, {kind}):\n{error}",
            )
    return failure is None and not abandoned


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


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tfrc-sweep-worker",
        description="Drain TFRC sweep cells from a (shared) queue directory "
        "written by SweepRunner's file-queue executor.",
    )
    parser.add_argument(
        "queue_dir", type=directory,
        help="queue directory (may be a shared mount used by other hosts)",
    )
    parser.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="identity recorded in claims/completions "
        "(default: <hostname>-<pid>)",
    )
    parser.add_argument(
        "--poll-interval", type=positive(float), default=0.5, metavar="S",
        help="initial seconds between queue scans while idle; backs off "
        "exponentially with jitter while nothing is claimable "
        "(default: 0.5)",
    )
    parser.add_argument(
        "--max-poll-interval", type=positive(float), default=None, metavar="S",
        help="cap on the idle-poll backoff "
        "(default: max(--poll-interval, 10))",
    )
    parser.add_argument(
        "--idle-timeout", type=positive(float), default=None, metavar="S",
        help="exit after this many seconds with nothing claimable "
        "(default: serve until killed)",
    )
    parser.add_argument(
        "--heartbeat", type=positive(float), default=5.0, metavar="S",
        help="lease heartbeat interval; must be well below the "
        "coordinator's lease timeout (default: 5)",
    )
    parser.add_argument(
        "--max-cells", type=positive(int), default=None, metavar="N",
        help="exit after executing N cells",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="exit as soon as the queue is found empty",
    )
    parser.add_argument(
        "--cell-timeout", type=positive(float), default=None, metavar="S",
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
        cell_timeout=args.cell_timeout,
    )
    if not args.quiet:
        _log(worker_id, f"exiting after {executed} cell(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
