"""``tfrc-sweep-fsck``: audit (and repair) a sweep queue directory + cache.

A file-queue sweep leaves durable state behind -- tasks, claims, done
markers, failure records, quarantined dead letters, and the result cache
the sweep is assembled from.  After crashes (coordinator or worker), hard
kills, or storage faults, that state can be internally inconsistent in
ways the live fabric tolerates but an operator should see before resuming
a long campaign.  This tool checks every invariant the fabric relies on
and, with ``--repair``, restores a **resumable** state (it never deletes
results or evidence: corrupt files move to quarantine, stale bookkeeping
is withdrawn, interrupted cells are made claimable again).

Findings (kind -> meaning -> repair):

``corrupt_cache_entry``
    A cache entry fails its checksum / shape validation (torn write, bit
    rot).  Repair: move it to the cache's ``quarantine/``; the cell
    re-executes on the next run.
``corrupt_task`` / ``corrupt_claim`` / ``corrupt_done``
    Queue bookkeeping that does not parse.  Repair: tasks and claims move
    to the queue's ``quarantine/`` with a failure record; a corrupt done
    marker is simply removed (it is derived state -- the cache decides).
``done_without_result``
    A done marker whose key has no intact cache entry: the sweep would
    trust a completion that cannot be assembled.  Repair: remove the
    marker so the cell re-runs.
``task_after_done`` / ``stale_claim``
    Leftover bookkeeping for a cell that already completed (done marker +
    intact cache entry) -- e.g. a lease-reclaim republication that lost
    the race, or a worker killed right after publishing.  Repair: remove.
``expired_lease``
    (Only with ``--lease-timeout``.)  A claim older than the given bound
    with no completed result -- its worker is presumed dead and no
    coordinator is running to reclaim it.  Repair: what the coordinator
    does -- recorded as a ``lease_expired`` failure and requeued within
    the budget (dead-lettered once the budget is spent), so repeated
    ``--repair`` runs cannot requeue a cell whose workers keep dying
    without bound.
``budget_exhausted_task``
    A queued task whose failure records have met the task's
    ``max_attempts``: a budget-spent cell that workers would keep
    burning attempts on.  Repair: dead-letter it (quarantine with its
    failure history) and withdraw the task.
``stale_tmp``
    Leftover ``*.tmp.*`` litter from interrupted atomic writes.  Repair:
    remove.

The recovery rules themselves -- lease age, the retry budget,
dead-lettering -- are :class:`~repro.scenarios.filequeue.FileQueue`'s, the
ones the coordinator applies.

Exit status: 0 when the state is clean (or ``--repair`` fixed every
finding), 1 when findings remain, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Set

from repro.analysis.audit.records import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    finding_record,
)
from repro.scenarios.cache import ResultCache, verify_entry
from repro.scenarios._fsio import read_json
from repro.scenarios.executors import directory, positive
from repro.scenarios.filequeue import FileQueue

#: finding kinds that are litter rather than lost/untrustworthy state.
_WARNING_KINDS = frozenset({"stale_tmp"})


@dataclass
class Finding:
    """One audit finding: what is wrong, where, and what repair ran."""

    kind: str
    path: Path
    detail: str
    repaired: Optional[str] = None  # description of the applied repair

    @property
    def severity(self) -> str:
        return (
            SEVERITY_WARNING if self.kind in _WARNING_KINDS else SEVERITY_ERROR
        )

    def to_record(self) -> dict:
        """The canonical findings record shared with ``tfrc-audit --json``.

        fsck findings are whole-file, never line-anchored, so ``line`` is
        always 0; the fsck-specific ``repaired`` note rides along as an
        extra key.
        """
        return finding_record(
            rule=f"fsck.{self.kind}",
            path=str(self.path),
            detail=self.detail,
            severity=self.severity,
            repaired=self.repaired,
        )

    def render(self) -> str:
        line = f"[{self.kind}] {self.path}: {self.detail}"
        if self.repaired:
            line += f" -- repaired: {self.repaired}"
        return line


def _key_of(path: Path) -> str:
    return path.name[: -len(".json")]


@dataclass
class _Report:
    """The findings so far, and whether their repairs run."""

    repair: bool
    findings: List[Finding] = field(default_factory=list)

    def add(
        self, kind: str, path: Path, detail: str, fix: Callable[[], Optional[str]]
    ) -> None:
        """Report one finding; under ``repair`` run ``fix`` and note what it
        says it did (None: the file vanished first, nothing was repaired)."""
        finding = Finding(kind, path, detail)
        if self.repair:
            finding.repaired = fix()
        self.findings.append(finding)

    def remove(self, kind: str, path: Path, detail: str, note: str) -> None:
        """A finding repaired by removing the file."""

        def fix() -> str:
            path.unlink(missing_ok=True)
            return note

        self.add(kind, path, detail, fix)

    def quarantine(self, what: str, path: Path, fq: FileQueue) -> None:
        """A task / claim that does not parse: moved, with a failure record."""

        def fix() -> Optional[str]:
            target = fq.quarantine_file(
                path,
                key=_key_of(path),
                kind=f"corrupt_{what}",
                worker="fsck",
                error=f"corrupt {what} payload found by tfrc-sweep-fsck",
            )
            return None if target is None else f"moved to {target}"

        self.add(f"corrupt_{what}", path, f"{what} payload does not parse", fix)


def _check_cache(report: _Report, cache: ResultCache) -> Set[str]:
    """Returns the keys (= entry stems) with verified cache entries."""
    intact: Set[str] = set()
    for path, defect in cache.scan():
        if defect is None:
            intact.add(_key_of(path))
            continue

        def fix() -> Optional[str]:
            target = cache.quarantine_file(path)
            return None if target is None else f"moved to {target}"

        report.add("corrupt_cache_entry", path, defect, fix)
    return intact


def _check_done(report: _Report, fq: FileQueue, intact: Set[str]) -> Set[str]:
    """Returns the keys with a done marker and an intact cache entry."""
    for path in sorted(fq.done.glob("*.json")):
        if read_json(path) is None:
            report.remove("corrupt_done", path, "done marker does not parse",
                          "removed (derived state; cell re-runs)")
        elif _key_of(path) not in intact:
            report.remove("done_without_result", path,
                          "done marker but no intact cache entry for this key",
                          "removed marker so the cell re-runs")
    return fq.done_keys() & intact


def _check_tasks(report: _Report, fq: FileQueue, done_and_cached: Set[str]) -> None:
    failures = fq.failure_counts()
    for path in sorted(fq.tasks.glob("*.json")):
        key = _key_of(path)
        payload = read_json(path)
        if payload is None or "key" not in payload:
            report.quarantine("task", path, fq)
        elif key in done_and_cached:
            report.remove("task_after_done", path,
                          "task still queued for a completed cell",
                          "withdrew the leftover task")
        elif failures.get(key, 0) >= (budget := int(payload.get("max_attempts", 1))):
            report.add(
                "budget_exhausted_task",
                path,
                f"queued with {failures[key]} failure record(s) >= "
                f"max_attempts={budget}; workers will churn on it",
                lambda: f"dead-lettered to {fq.dead_letter(payload)[0]}",
            )


def _check_claims(
    report: _Report,
    fq: FileQueue,
    done_and_cached: Set[str],
    lease_timeout: Optional[float],
) -> None:
    ages = {}
    if lease_timeout is not None:
        ages = {key: age for key, _, age, _ in fq.stale_leases(lease_timeout)}
    for path in sorted(fq.claims.glob("*.json")):
        key = _key_of(path)
        payload = read_json(path)
        if payload is None or "key" not in payload:
            report.quarantine("claim", path, fq)
        elif key in done_and_cached:
            report.remove("stale_claim", path,
                          "lease still held for a completed cell",
                          "released the stale lease")
        elif key in ages:
            detail = (
                f"lease {ages[key]:.1f}s old exceeds the "
                f"{lease_timeout:.1f}s bound with no result"
            )

            def reclaim() -> str:
                # the coordinator's reclaim; republished without its holder
                task = {k: v for k, v in payload.items() if k != "worker"}
                if fq.fail_attempt(
                    task,
                    path,
                    worker=payload.get("worker", "unknown"),
                    kind="lease_expired",
                    error=f"{detail}; reclaimed by tfrc-sweep-fsck",
                ):
                    return "requeued the cell and dropped the lease"
                return f"budget spent: dead-lettered to {fq.dead_letter(task)[0]}"

            report.add("expired_lease", path, detail, reclaim)


def _check_tmp(report: _Report, roots: Iterable[Path]) -> None:
    for root in roots:
        for path in sorted(root.glob("*.tmp.*")):
            report.remove("stale_tmp", path,
                          "interrupted atomic write left behind", "removed")


def audit(
    queue_dir: "str | Path",
    *,
    cache_dir: "str | Path | None" = None,
    lease_timeout: Optional[float] = None,
    repair: bool = False,
) -> List[Finding]:
    """Audit ``queue_dir`` (+ its cache); optionally repair as documented.

    ``cache_dir`` defaults to ``<queue_dir>/results``, the coordinator's
    own default.  Repairs are applied as findings are discovered (a torn
    cache entry is moved before ``done/`` is judged against what is left);
    a finding whose repair ran has ``repaired`` set.
    """
    fq = FileQueue(queue_dir).ensure()
    cache = ResultCache(
        cache_dir if cache_dir is not None else fq.root / "results"
    )
    report = _Report(repair)
    intact = _check_cache(report, cache)
    done_and_cached = _check_done(report, fq, intact)
    _check_tasks(report, fq, done_and_cached)
    _check_claims(report, fq, done_and_cached, lease_timeout)
    _check_tmp(report, (fq.tasks, fq.claims, fq.done, fq.failures, cache.root))
    return report.findings


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tfrc-sweep-fsck",
        description="Audit a sweep queue directory and its result cache "
        "for inconsistent state; --repair restores a resumable state "
        "without deleting results or evidence.",
    )
    parser.add_argument(
        "queue_dir", type=directory,
        help="queue directory to audit (the coordinator's)",
    )
    parser.add_argument(
        "--cache", default=None, type=directory, metavar="DIR",
        help="result cache directory (default: <queue_dir>/results)",
    )
    parser.add_argument(
        "--lease-timeout", type=positive(float), default=None, metavar="S",
        help="also flag claims older than S seconds (only meaningful when "
        "no coordinator/worker is running against the directory)",
    )
    parser.add_argument(
        "--repair", action="store_true",
        help="apply the documented repair for each finding",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable report (one JSON object) on stdout",
    )
    args = parser.parse_args(argv)
    if not Path(args.queue_dir).is_dir():
        parser.error(f"queue directory {args.queue_dir!r} does not exist")

    findings = audit(
        args.queue_dir,
        cache_dir=args.cache,
        lease_timeout=args.lease_timeout,
        repair=args.repair,
    )
    fq = FileQueue(args.queue_dir)
    quarantined = sorted(fq.quarantined_keys())
    unrepaired = [f for f in findings if f.repaired is None]

    if args.as_json:
        print(
            json.dumps(
                {
                    "tool": "tfrc-sweep-fsck",
                    "queue_dir": str(fq.root),
                    "findings": [f.to_record() for f in findings],
                    "quarantined_keys": quarantined,
                    "clean": not findings,
                },
                indent=2,
                sort_keys=True,
                allow_nan=False,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        if quarantined:
            print(
                f"note: {len(quarantined)} quarantined cell(s) in "
                f"{fq.quarantine} (dead letters; inspect and clear to retry)"
            )
        if not findings:
            print(f"{fq.root}: clean")
        else:
            repaired = len(findings) - len(unrepaired)
            print(
                f"{fq.root}: {len(findings)} finding(s), "
                f"{repaired} repaired, {len(unrepaired)} remaining"
            )
    return 1 if unrepaired else 0


if __name__ == "__main__":
    sys.exit(main())


# verify_entry is re-exported for callers that audit single entries.
__all__ = ["Finding", "audit", "main", "verify_entry"]
