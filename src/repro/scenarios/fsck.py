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
    coordinator is running to reclaim it.  Repair: republish the claim's
    payload as a claimable task, then drop the claim.
``budget_exhausted_task``
    A queued task whose recorded ``attempts`` already meet its
    ``max_attempts`` budget: workers would refuse to requeue it and the
    cell would churn forever.  Repair: dead-letter it (quarantine with its
    failure history) and withdraw the task.
``stale_tmp``
    Leftover ``*.tmp.*`` litter from interrupted atomic writes.  Repair:
    remove.

Exit status: 0 when the state is clean (or ``--repair`` fixed every
finding), 1 when findings remain, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.analysis.audit.records import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    finding_record,
)
from repro.scenarios.cache import ResultCache, verify_entry
from repro.scenarios._fsio import read_json
from repro.scenarios.executors import positive
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


def audit(
    queue_dir: "str | Path",
    *,
    cache_dir: "str | Path | None" = None,
    lease_timeout: Optional[float] = None,
    repair: bool = False,
) -> List[Finding]:
    """Audit ``queue_dir`` (+ its cache); optionally repair as documented.

    ``cache_dir`` defaults to ``<queue_dir>/results``, the coordinator's
    own default.  Repairs are applied as findings are discovered; a
    finding whose repair ran has ``repaired`` set.
    """
    fq = FileQueue(queue_dir).ensure()
    cache = ResultCache(
        cache_dir if cache_dir is not None else fq.root / "results"
    )
    findings: List[Finding] = []

    # ------------------------------------------------------------- cache
    intact: set = set()  # keys (= entry stems) with verified cache entries
    for path, defect in cache.scan():
        if defect is None:
            intact.add(path.name[: -len(".json")])
            continue
        finding = Finding("corrupt_cache_entry", path, defect)
        if repair:
            target = cache.quarantine_file(path)
            if target is not None:
                finding.repaired = f"moved to {target}"
        findings.append(finding)

    # ------------------------------------------------------ done markers
    for path in sorted(fq.done.glob("*.json")):
        key = _key_of(path)
        marker = read_json(path)
        if marker is None:
            finding = Finding(
                "corrupt_done", path, "done marker does not parse"
            )
            if repair:
                path.unlink(missing_ok=True)
                finding.repaired = "removed (derived state; cell re-runs)"
            findings.append(finding)
            continue
        if key not in intact:
            finding = Finding(
                "done_without_result",
                path,
                "done marker but no intact cache entry for this key",
            )
            if repair:
                path.unlink(missing_ok=True)
                finding.repaired = "removed marker so the cell re-runs"
            findings.append(finding)

    done_and_cached = {
        _key_of(path)
        for path in fq.done.glob("*.json")
        if _key_of(path) in intact
    }

    # ------------------------------------------------------------- tasks
    for path in sorted(fq.tasks.glob("*.json")):
        key = _key_of(path)
        payload = read_json(path)
        if payload is None or "key" not in payload:
            finding = Finding(
                "corrupt_task", path, "task payload does not parse"
            )
            if repair:
                target = fq.quarantine_file(
                    path,
                    key=key,
                    kind="corrupt_task",
                    worker="fsck",
                    error="corrupt task payload found by tfrc-sweep-fsck",
                )
                if target is not None:
                    finding.repaired = f"moved to {target}"
            findings.append(finding)
            continue
        if key in done_and_cached:
            finding = Finding(
                "task_after_done",
                path,
                "task still queued for a completed cell",
            )
            if repair:
                path.unlink(missing_ok=True)
                finding.repaired = "withdrew the leftover task"
            findings.append(finding)
            continue
        attempts = int(payload.get("attempts", 0))
        max_attempts = int(payload.get("max_attempts", 1))
        if attempts >= max_attempts:
            finding = Finding(
                "budget_exhausted_task",
                path,
                f"queued with attempts={attempts} >= "
                f"max_attempts={max_attempts}; workers will churn on it",
            )
            if repair:
                target = fq.quarantine_cell(
                    key,
                    kind="retry_budget_exhausted",
                    payload=payload,
                    failures=fq.read_failures(key),
                )
                path.unlink(missing_ok=True)
                finding.repaired = f"dead-lettered to {target}"
            findings.append(finding)

    # ------------------------------------------------------------ claims
    now = fq.fs_now()
    for path in sorted(fq.claims.glob("*.json")):
        key = _key_of(path)
        payload = read_json(path)
        if payload is None or "key" not in payload:
            finding = Finding(
                "corrupt_claim", path, "claim payload does not parse"
            )
            if repair:
                target = fq.quarantine_file(
                    path,
                    key=key,
                    kind="corrupt_claim",
                    worker="fsck",
                    error="corrupt claim payload found by tfrc-sweep-fsck",
                )
                if target is not None:
                    finding.repaired = f"moved to {target}"
            findings.append(finding)
            continue
        if key in done_and_cached:
            finding = Finding(
                "stale_claim",
                path,
                "lease still held for a completed cell",
            )
            if repair:
                path.unlink(missing_ok=True)
                finding.repaired = "released the stale lease"
            findings.append(finding)
            continue
        if lease_timeout is not None:
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue  # vanished mid-audit (a live worker released it)
            if age > lease_timeout:
                finding = Finding(
                    "expired_lease",
                    path,
                    f"lease {age:.1f}s old exceeds the "
                    f"{lease_timeout:.1f}s bound with no result",
                )
                if repair:
                    task = {
                        k: v for k, v in payload.items() if k != "worker"
                    }
                    fq.enqueue(task)
                    path.unlink(missing_ok=True)
                    finding.repaired = "requeued the cell and dropped the lease"
                findings.append(finding)

    # --------------------------------------------------------- tmp litter
    for root in (fq.tasks, fq.claims, fq.done, fq.failures, cache.root):
        for path in sorted(root.glob("*.tmp.*")):
            finding = Finding(
                "stale_tmp", path, "interrupted atomic write left behind"
            )
            if repair:
                path.unlink(missing_ok=True)
                finding.repaired = "removed"
            findings.append(finding)

    return findings


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tfrc-sweep-fsck",
        description="Audit a sweep queue directory and its result cache "
        "for inconsistent state; --repair restores a resumable state "
        "without deleting results or evidence.",
    )
    parser.add_argument(
        "queue_dir", help="queue directory to audit (the coordinator's)"
    )
    parser.add_argument(
        "--cache", default=None, metavar="DIR",
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
