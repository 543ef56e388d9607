"""On-disk JSON result cache keyed by scenario spec hash.

One file per cell: ``<cache_dir>/<scenario>-<hash>.json`` holding the spec
(for human inspection / debugging), its result, and a ``checksum`` over
both.  The unit of commit is the **executed group** --
:meth:`ResultCache.put_many` takes the cells that finished together (a
lockstep batch; a queue worker's leased cell and :meth:`ResultCache.put`
are groups of one) and hands their entries to
:func:`~repro.scenarios._fsio.atomic_write_json_many`: every tmp file
written and fsynced, *then* the renames, then one directory fsync.  So a
sweep interrupted mid-commit -- or a host losing power -- never leaves a
silently-trusted corrupt entry: an entry is either absent (a clean miss,
the cell re-executes) or whole, and no entry is visible at its final name
before its bytes are durable.  A corrupt entry found on read (truncated
JSON, checksum mismatch, wrong shape) is **quarantined** into
``<cache_dir>/quarantine/`` and reported as a miss, so the damaged cell is
automatically re-executed instead of poisoning the sweep; missing files
are plain misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.scenarios._fsio import atomic_write_json_many
from repro.scenarios.spec import JsonDict, ScenarioSpec

#: subdirectory (of the cache root) holding quarantined corrupt entries.
QUARANTINE_DIRNAME = "quarantine"

#: entry statuses returned by :meth:`ResultCache.get_status`.
STATUS_HIT = "hit"
STATUS_MISS = "miss"
STATUS_CORRUPT = "corrupt"


def entry_key(spec: ScenarioSpec) -> str:
    """A cell's identity, ``<scenario>-<spec_hash>``: its cache entry's file
    name stem and its file-queue key.  A sweep makes it once per cell, at
    expansion (``SweepCell.key``), and passes it on from there."""
    return f"{spec.scenario}-{spec.spec_hash()}"


def payload_checksum(spec_dict: JsonDict, result: JsonDict) -> str:
    """The entry checksum: sha256 over the canonical spec+result JSON."""
    canonical = json.dumps(
        {"result": result, "spec": spec_dict},
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def verify_entry(payload: Any) -> Optional[str]:
    """Validate a parsed cache entry; None when intact, else the defect.

    Entries written before checksums existed (no ``checksum`` key) are
    accepted as long as their shape is right -- corruption in them is
    undetectable anyway -- so old caches keep resuming sweeps.
    """
    if not isinstance(payload, dict):
        return "entry is not a JSON object"
    result = payload.get("result")
    if not isinstance(result, dict):
        return "entry has no result object"
    spec_dict = payload.get("spec")
    if not isinstance(spec_dict, dict):
        return "entry has no spec object"
    checksum = payload.get("checksum")
    if checksum is None:
        return None  # pre-checksum entry: shape is all we can verify
    try:
        expected = payload_checksum(spec_dict, result)
    except ValueError:
        return "entry is not canonicalizable strict JSON"
    if checksum != expected:
        return f"checksum mismatch (stored {checksum}, computed {expected})"
    return None


class ResultCache:
    """Spec-hash-keyed store of scenario results.  ``key``, where a method
    takes one, is the spec's :func:`entry_key` if the caller holds it."""

    def __init__(self, root: "str | os.PathLike[str]") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: corrupt entries :meth:`get` has found (and quarantined) through
        #: this object; each is a cell that re-executes.
        self.quarantined_on_read = 0

    def entry_path(self, spec: ScenarioSpec, key: Optional[str] = None) -> Path:
        """Where ``spec``'s entry lives (whether or not it exists yet)."""
        return self.root / f"{key or entry_key(spec)}.json"

    def serialize(self, spec: ScenarioSpec, result: JsonDict) -> JsonDict:
        """The full checksummed entry payload :meth:`put` would write."""
        spec_dict = spec.to_dict()
        return {
            "checksum": payload_checksum(spec_dict, result),
            "result": result,
            "spec": spec_dict,
        }

    # ---------------------------------------------------------------- reads

    def get(
        self, spec: ScenarioSpec, key: Optional[str] = None
    ) -> Optional[JsonDict]:
        """The cached result for ``spec``, or None on a miss.

        A **corrupt** entry (unparseable, checksum-failing, or misshapen)
        is also reported as a miss -- after being moved into the
        quarantine directory with a warning and counted in
        :attr:`quarantined_on_read` -- so the caller re-executes the
        damaged cell instead of trusting or crashing on it.
        """
        status, result, _ = self.get_status(spec, key)
        if status == STATUS_CORRUPT:
            self.quarantine(spec, key)
            self.quarantined_on_read += 1
        return result

    def get_status(
        self, spec: ScenarioSpec, key: Optional[str] = None
    ) -> Tuple[str, Optional[JsonDict], Optional[str]]:
        """``(status, result, defect)`` without side effects.

        ``status`` is ``"hit"`` (result returned), ``"miss"`` (no file),
        or ``"corrupt"`` (file present but damaged; ``defect`` says how).
        """
        path = self.entry_path(spec, key)
        try:
            with path.open("r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError:
            return STATUS_MISS, None, None
        except ValueError as exc:
            return STATUS_CORRUPT, None, f"unparseable JSON: {exc}"
        defect = verify_entry(payload)
        if defect is not None:
            return STATUS_CORRUPT, None, defect
        return STATUS_HIT, payload["result"], None

    # --------------------------------------------------------------- writes

    def put(self, spec: ScenarioSpec, result: JsonDict) -> Path:
        """:meth:`put_many` for a group of one; returns the entry's path."""
        return self.put_many([(spec, result)])[0]

    def put_many(self, items: Sequence[Tuple[Any, ...]]) -> List[Path]:
        """Store the results of cells that finished together as one group
        commit; returns the entries' paths, in order.

        ``items`` are ``(spec, result)`` pairs, or ``(spec, result, key)``
        triples carrying the spec's :func:`entry_key`.  Entries are strict
        JSON (``allow_nan=False``, matching
        :meth:`~repro.scenarios.spec.ScenarioSpec.canonical_json`) with a
        content checksum: a NaN or Infinity metric raises
        :class:`ValueError` naming the cell -- before anything of the group
        is written -- instead of writing an entry other strict parsers
        would reject.  A failed write never leaves a tmp file behind, and a
        crash at any point never leaves a zero-length or torn file at a
        committed name.
        """
        entries = []
        for spec, result, *carried in items:
            path = self.entry_path(spec, *carried)
            try:
                entries.append((path, self.serialize(spec, result)))
            except ValueError as exc:
                raise ValueError(
                    f"result for {path.stem} is not strict JSON -- "
                    f"NaN/Infinity values cannot be cached: {exc}"
                ) from exc
        atomic_write_json_many(entries)
        return [path for path, _payload in entries]

    # ----------------------------------------------------------- quarantine

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIRNAME

    def quarantine(
        self, spec: ScenarioSpec, key: Optional[str] = None
    ) -> Optional[Path]:
        """Move ``spec``'s (corrupt) entry into quarantine; its new path.

        Returns None when the entry vanished first (e.g. another process
        quarantined it already).  The sweep then sees a plain miss and
        re-executes the cell.
        """
        return self.quarantine_file(self.entry_path(spec, key))

    def quarantine_file(self, path: Path) -> Optional[Path]:
        """Move one corrupt entry file into the quarantine directory."""
        nonce = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        target = self.quarantine_dir / f"{path.name}.{nonce}"
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            path.rename(target)
        except OSError:
            return None  # already gone (raced with another reader)
        print(
            f"[result-cache] corrupt entry {path.name} quarantined to "
            f"{target} (the cell will re-execute)",
            file=sys.stderr,
        )
        return target

    # -------------------------------------------------------------- surveys

    def scan(self) -> List[Tuple[Path, Optional[str]]]:
        """Audit every entry file: ``(path, defect-or-None)`` per entry.

        Used by ``tfrc-sweep-fsck``; performs no quarantining itself.
        """
        report: List[Tuple[Path, Optional[str]]] = []
        for path in sorted(self.root.glob("*.json")):
            try:
                with path.open("r", encoding="utf-8") as fh:
                    payload = json.load(fh)
            except OSError:
                continue  # vanished mid-scan
            except ValueError as exc:
                report.append((path, f"unparseable JSON: {exc}"))
                continue
            report.append((path, verify_entry(payload)))
        return report

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
