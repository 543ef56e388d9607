"""The shared-directory cell queue: the file-queue fabric's on-disk protocol.

The coordinator (:class:`~repro.scenarios.executors.FileQueueExecutor`),
the workers (:mod:`repro.scenarios.worker`) and ``tfrc-sweep-fsck``
(:mod:`repro.scenarios.fsck`) each hold a :class:`FileQueue` over the same
directory and coordinate through nothing else.  The recovery policy is
written here once, for all three: what a failed attempt does to a cell
(:meth:`FileQueue.fail_attempt`), which leases are stale
(:meth:`FileQueue.stale_leases`) and how a spent cell is dead-lettered
(:meth:`FileQueue.dead_letter`).
"""

from __future__ import annotations

import os
import time
import uuid
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.scenarios import faults
from repro.scenarios._fsio import JsonDict, atomic_write_json, read_json


def _nonce() -> str:
    """A dot-free suffix unique across hosts, processes and calls."""
    return f"{time.time_ns():x}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class FileQueue:
    """The shared-directory cell queue behind :class:`FileQueueExecutor`.

    Layout under ``root`` (which may live on a shared filesystem)::

        tasks/<key>.json      claimable cell payloads
        claims/<key>.json     leased cells (atomic rename from tasks/;
                              mtime doubles as the worker heartbeat)
        done/<key>.json       completion markers (elapsed, worker, attempts)
        failures/<key>.<nonce>.json   one record per failed attempt
        quarantine/           dead letters: corrupt task/claim files (moved
                              here verbatim, named <key>.json.<nonce>) and
                              poison-cell records (<key>.<nonce>.json with
                              the cell's payload + failure history)
        results/              default ResultCache location (coordinator may
                              point the cache elsewhere)
        .clock                coordinator-touched sentinel; its mtime is
                              the queue directory's own notion of "now",
                              used for lease-age checks so coordinator /
                              worker clock skew cannot reclaim healthy
                              leases on shared mounts

    A task payload carries everything a worker needs: the cell ``key``
    (``<scenario>-<spec_hash>``), the scenario's defining ``module``, the
    ``spec`` dict, the ``cache_dir`` results should land in (relative paths
    are resolved against ``root`` so multi-host mounts need not agree on
    absolute paths) and the ``max_attempts`` budget.  How many attempts
    have failed is **not** in it: that is the number of
    ``failures/<key>.*.json`` records (:meth:`failure_count`), the only
    count there is -- an ``attempts`` field in a payload (an older
    version's file) is carried along and never read.
    """

    def __init__(self, root: "str | os.PathLike[str]") -> None:
        self.root = Path(root)
        self.tasks = self.root / "tasks"
        self.claims = self.root / "claims"
        self.done = self.root / "done"
        self.failures = self.root / "failures"
        self.quarantine = self.root / "quarantine"

    def ensure(self) -> "FileQueue":
        for directory in (
            self.tasks,
            self.claims,
            self.done,
            self.failures,
            self.quarantine,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        return self

    # -------------------------------------------------------------- clock

    def fs_now(self) -> float:
        """The queue directory's own notion of "now".

        Touches a sentinel file and returns its resulting mtime: on a
        shared (NFS-style) mount that timestamp comes from the fileserver
        -- the same clock that stamps claim heartbeats -- so lease ages
        computed against it are immune to wall-clock skew between the
        coordinator and worker hosts.  Falls back to local time if the
        sentinel cannot be touched (read-only snapshot etc.).
        """
        sentinel = self.root / ".clock"
        try:
            with open(sentinel, "a", encoding="utf-8"):
                pass
            os.utime(sentinel)
            return sentinel.stat().st_mtime
        except OSError:
            return time.time()

    # ------------------------------------------------------------- paths

    def task_path(self, key: str) -> Path:
        return self.tasks / f"{key}.json"

    def claim_path(self, key: str) -> Path:
        return self.claims / f"{key}.json"

    def done_path(self, key: str) -> Path:
        return self.done / f"{key}.json"

    # ----------------------------------------------------------- enqueue

    def enqueue(self, payload: JsonDict) -> Path:
        """(Re-)publish a claimable task; atomic, last write wins."""
        key = payload["key"]
        path = self.task_path(key)
        if faults.active() is not None and faults.fires(
            "corrupt_task_write", key, self.failure_count(key)
        ):  # fault injection: a torn task publication
            faults.write_torn(path, payload)
            return path
        atomic_write_json(path, payload)
        return path

    def resolve_cache_dir(self, cache_dir: str) -> Path:
        """Task cache dirs may be relative: resolve against the queue root."""
        path = Path(cache_dir)
        return path if path.is_absolute() else self.root / path

    def encode_cache_dir(self, cache_root: "str | os.PathLike[str]") -> str:
        """Store cache paths under the queue root relatively (multi-host)."""
        cache_root = Path(cache_root).resolve()
        try:
            return str(cache_root.relative_to(self.root.resolve()))
        except ValueError:
            return str(cache_root)

    # ------------------------------------------------------------- claim

    def claim_task(
        self, task: Path, worker_id: str
    ) -> Optional[Tuple[Path, JsonDict]]:
        """Atomically lease one specific task file, or None if unclaimable.

        The ``tasks/ -> claims/`` rename is the mutual exclusion: exactly
        one contender's rename succeeds.  A corrupt payload (torn
        publication, bit rot) is **quarantined** -- moved verbatim into
        ``quarantine/`` with a ``corrupt_task`` failure record -- so the
        cell keeps a failure trail instead of silently vanishing from the
        sweep; the coordinator's liveness backstop then republishes it
        within the retry budget.
        """
        claim = self.claims / task.name
        try:
            task.rename(claim)
        except OSError:
            return None  # another worker won the rename (or task vanished)
        payload = read_json(claim)
        if payload is None or "key" not in payload:
            key = task.name[: -len(".json")] if task.name.endswith(".json") else task.name
            self.quarantine_file(
                claim,
                key=key,
                kind="corrupt_task",
                worker=worker_id,
                error=f"task payload {task.name} is corrupt or truncated; "
                f"quarantined for inspection",
            )
            return None
        # Stamp the lease with its holder so cleanup can verify
        # ownership: a worker that stalls past the lease timeout,
        # loses the claim to reclaim, and later resumes must not
        # unlink the *replacement* worker's lease on this same path.
        payload = dict(payload)
        payload["worker"] = worker_id
        atomic_write_json(claim, payload)
        if faults.active() is not None:  # fault injection: skewed worker clock
            key = payload["key"]
            skewed = faults.skewed_claim_time(key, self.failure_count(key))
            if skewed is not None:
                try:
                    os.utime(claim, (skewed, skewed))
                except OSError:
                    pass
        return claim, payload

    def claim_next(self, worker_id: str) -> Optional[Tuple[Path, JsonDict]]:
        """Atomically lease the first claimable task, or None if empty."""
        for task in sorted(self.tasks.glob("*.json")):
            claimed = self.claim_task(task, worker_id)
            if claimed is not None:
                return claimed
        return None

    def release_claim(self, claim: Path, worker_id: str) -> None:
        """Unlink a claim only if it is still this worker's lease."""
        payload = read_json(claim)
        if payload is None or payload.get("worker") in (None, worker_id):
            claim.unlink(missing_ok=True)

    @staticmethod
    def heartbeat(claim: Path) -> None:
        """Refresh a lease; a vanished claim (reclaimed) is not an error."""
        try:
            os.utime(claim)
        except OSError:
            pass

    # ------------------------------------------------------- completions

    def complete(
        self,
        key: str,
        *,
        worker: str,
        elapsed_seconds: float,
        attempts: int,
        cached: bool = False,
    ) -> None:
        atomic_write_json(
            self.done_path(key),
            {
                "key": key,
                "worker": worker,
                "elapsed_seconds": elapsed_seconds,
                "attempts": attempts,
                "cached": cached,
            },
        )

    def read_done(self, key: str) -> Optional[JsonDict]:
        return read_json(self.done_path(key))

    def done_keys(self) -> "set[str]":
        """Keys with completion markers, in one directory scan."""
        try:
            names = os.listdir(self.done)
        except OSError:
            return set()
        return {
            name[: -len(".json")] for name in names if name.endswith(".json")
        }

    # ---------------------------------------------------------- failures

    def record_failure(
        self, key: str, *, worker: str, kind: str, error: str
    ) -> None:
        """Add one failure record; its number is the count it brings ``key`` to."""
        atomic_write_json(
            self.failures / f"{key}.{_nonce()}.json",
            {
                "key": key,
                "worker": worker,
                "kind": kind,
                "error": error,
                "attempts": self.failure_count(key) + 1,
            },
        )

    def fail_attempt(
        self,
        payload: JsonDict,
        held: Path,
        *,
        worker: str,
        kind: str,
        error: str,
        own_lease: bool = False,
    ) -> bool:
        """The retry policy: what one failed attempt does to a cell.

        Records the failure, drops ``held`` -- the claim or done marker
        that stood for the attempt -- and republishes ``payload`` while the
        cell's failure records number fewer than its ``max_attempts``.
        Returns whether it republished; a cell it did not has spent its
        budget and is dead-lettered by whoever drives recovery
        (:meth:`dead_letter`).

        ``held`` goes BEFORE the task comes back, and no caller may touch
        it afterwards: a worker claiming the new task renames it onto that
        same claim path, and a later unlink would delete *its* fresh
        lease.  ``own_lease`` says ``held`` is ``worker``'s own claim,
        released only if still theirs (:meth:`release_claim`).
        """
        key = payload["key"]
        self.record_failure(key, worker=worker, kind=kind, error=error)
        if own_lease:
            self.release_claim(held, worker)
        else:
            held.unlink(missing_ok=True)
        if self.failure_count(key) >= int(payload.get("max_attempts", 1)):
            return False
        self.enqueue(payload)
        return True

    def stale_leases(
        self, older_than: float
    ) -> Iterator[Tuple[str, Path, float, Optional[JsonDict]]]:
        """``(key, claim, age, payload)`` of each lease older than
        ``older_than`` seconds; ``payload`` is None for a corrupt claim.

        Lease age is ``fs_now() - claim mtime``: both timestamps come from
        the filesystem holding the queue directory, so on a shared mount
        the comparison uses the fileserver's clock on both sides.
        Comparing against the caller's local wall clock instead would let
        clock skew between hosts reclaim a healthy worker's lease the
        moment it was taken (pinned by ``tests/test_chaos.py``).
        """
        now = self.fs_now()
        for claim in sorted(self.claims.glob("*.json")):
            try:
                age = now - claim.stat().st_mtime
            except OSError:
                continue  # released since the listing
            if age > older_than:
                yield claim.name[: -len(".json")], claim, age, read_json(claim)

    def failure_count(self, key: str) -> int:
        return sum(1 for _ in self.failures.glob(f"{key}.*.json"))

    def failure_counts(self) -> Dict[str, int]:
        """Failure-record counts for every key, in one directory scan.

        Record names are ``<key>.<nonce>.json`` with a dot-free nonce, so
        stripping the last two dot-separated components recovers the key.
        """
        counts: Dict[str, int] = {}
        try:
            names = os.listdir(self.failures)
        except OSError:
            return counts
        for name in names:
            if not name.endswith(".json"):
                continue
            key = name[: -len(".json")].rsplit(".", 1)[0]
            counts[key] = counts.get(key, 0) + 1
        return counts

    def clear_failures(self, key: str) -> None:
        """Forget a cell's failure history (fresh enqueue = fresh budget)."""
        for path in self.failures.glob(f"{key}.*.json"):
            path.unlink(missing_ok=True)

    def read_failures(self, key: str) -> List[JsonDict]:
        records = []
        for path in sorted(self.failures.glob(f"{key}.*.json")):
            payload = read_json(path)
            if payload is not None:
                records.append(payload)
        return records

    # --------------------------------------------------------- quarantine

    def quarantine_file(
        self, path: Path, *, key: str, kind: str, error: str, worker: str = ""
    ) -> Optional[Path]:
        """Dead-letter a corrupt file: move it verbatim into
        ``quarantine/`` and record a failure of ``kind`` for ``key``.

        Returns the quarantined path, or None when the file vanished
        first (another contender quarantined or reclaimed it).
        """
        target = self.quarantine / f"{path.name}.{_nonce()}"
        try:
            self.quarantine.mkdir(parents=True, exist_ok=True)
            path.rename(target)
        except OSError:
            return None
        self.record_failure(key, worker=worker, kind=kind, error=error)
        return target

    def quarantine_cell(
        self,
        key: str,
        *,
        kind: str,
        payload: Optional[JsonDict] = None,
        failures: Optional[List[JsonDict]] = None,
    ) -> Path:
        """Write a poison cell's dead-letter record (payload + history)."""
        target = self.quarantine / f"{key}.{_nonce()}.json"
        self.quarantine.mkdir(parents=True, exist_ok=True)
        atomic_write_json(
            target,
            {
                "key": key,
                "kind": kind,
                "task": payload,
                "failures": list(failures or []),
            },
        )
        return target

    def dead_letter(self, payload: JsonDict) -> Tuple[Path, List[JsonDict]]:
        """Dead-letter a cell whose retry budget is spent.

        Its payload plus full failure history land in ``quarantine/`` so
        the evidence survives whatever runs next, and the task file is
        withdrawn so workers stop burning attempts on it.  Returns the
        record's path and the history.
        """
        key = payload["key"]
        records = self.read_failures(key)
        target = self.quarantine_cell(
            key,
            kind="retry_budget_exhausted",
            payload=payload,
            failures=records,
        )
        self.task_path(key).unlink(missing_ok=True)
        return target, records

    def quarantined_keys(self) -> "set[str]":
        """Cell keys with any quarantine entry, in one directory scan.

        Covers both entry shapes: poison records (``<key>.<nonce>.json``)
        and verbatim corrupt files (``<key>.json.<nonce>``).
        """
        keys: "set[str]" = set()
        try:
            names = os.listdir(self.quarantine)
        except OSError:
            return keys
        for name in names:
            if ".json." in name:  # verbatim corrupt file
                keys.add(name.split(".json.", 1)[0])
            elif name.endswith(".json"):  # poison record
                keys.add(name[: -len(".json")].rsplit(".", 1)[0])
        return keys

    def clear_quarantine(self, key: str) -> None:
        """Forget a cell's dead letters (fresh enqueue = fresh budget)."""
        for path in list(self.quarantine.glob(f"{key}.*")):
            path.unlink(missing_ok=True)
