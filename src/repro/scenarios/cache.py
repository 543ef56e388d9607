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
before its bytes are durable.

Every read -- a sweep's lookup and ``tfrc-sweep-fsck``'s :meth:`scan`
alike -- is one binary read, one parse and :func:`verify_entry`, which
re-encodes the stored result and spec, recomputes the checksum from them
and checks that the stored spec hashes to the file's name, each time.  A
corrupt entry found on read (truncated JSON, checksum mismatch or none,
wrong shape, or another cell's spec) is **quarantined** into
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
from repro.scenarios.spec import CANONICAL, JsonDict, ScenarioSpec, canonical_hash

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


def payload_checksum(result_text: str, spec_text: str) -> str:
    """The entry checksum, from the canonical texts of its result and spec:
    sha256 over ``{"result":<result>,"spec":<spec>}``, the very text a
    key-sorted, compact, strict ``json.dumps`` of the pair makes."""
    text = '{"result":' + result_text + ',"spec":' + spec_text + "}"
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def verify_entry(payload: Any, key: Optional[str] = None) -> Optional[str]:
    """Validate a parsed cache entry; None when intact, else the defect.

    An entry is intact when it is an object with a ``result`` object, a
    ``spec`` object and a ``checksum`` that matches both, recomputed here
    from the stored bytes on every call.  An entry without a checksum is
    corrupt: the writer stamps every entry, so a missing one means a
    damaged file.  With ``key`` given -- the :func:`entry_key` the entry is
    filed under, its file name stem -- the stored spec must also hash to
    that key: an entry copied or renamed over another cell's name holds
    another cell's result, and is corrupt too.
    """
    if not isinstance(payload, dict):
        return "entry is not a JSON object"
    result = payload.get("result")
    if not isinstance(result, dict):
        return "entry has no result object"
    stored = payload.get("spec")
    if not isinstance(stored, dict):
        return "entry has no spec object"
    checksum = payload.get("checksum")
    if checksum is None:
        return "entry has no checksum"
    try:
        spec_text = CANONICAL.encode(stored)
        expected = payload_checksum(CANONICAL.encode(result), spec_text)
    except ValueError:
        return "entry is not canonicalizable strict JSON"
    if checksum != expected:
        return f"checksum mismatch (stored {checksum}, computed {expected})"
    if key is not None:
        held = f"{stored.get('scenario')}-{canonical_hash(spec_text)}"
        if held != key:
            return (
                f"entry holds the spec of {held}, not of {key}, "
                "the cell it is filed under"
            )
    return None


def _read_entry(path: str) -> Tuple[str, Optional[JsonDict], Optional[str]]:
    """``(status, result, defect)`` of the entry file at ``path``: one
    binary read, one parse, :func:`verify_entry` against the key its name
    (``<key>.json``) files it under."""
    try:
        with open(path, "rb", buffering=0) as fh:
            data = fh.read()
    except OSError:
        return STATUS_MISS, None, None
    try:
        payload = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        return STATUS_CORRUPT, None, f"unparseable JSON: {exc}"
    defect = verify_entry(payload, os.path.basename(path)[: -len(".json")])
    if defect is not None:
        return STATUS_CORRUPT, None, defect
    return STATUS_HIT, payload["result"], None


class ResultCache:
    """Spec-hash-keyed store of scenario results.  ``key``, where a method
    takes one, is the spec's :func:`entry_key` if the caller holds it."""

    def __init__(self, root: "str | os.PathLike[str]") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._prefix = os.path.join(self.root, "")
        #: corrupt entries :meth:`get` has found (and quarantined) through
        #: this object; each is a cell that re-executes.
        self.quarantined_on_read = 0

    def entry_path(self, spec: ScenarioSpec, key: Optional[str] = None) -> Path:
        """Where ``spec``'s entry lives (whether or not it exists yet)."""
        return Path(self._entry_file(spec, key))

    def _entry_file(self, spec: ScenarioSpec, key: Optional[str] = None) -> str:
        """:meth:`entry_path` as a plain string: a hit builds no ``Path``."""
        return f"{self._prefix}{key or entry_key(spec)}.json"

    def serialize(self, spec: ScenarioSpec, result: JsonDict) -> JsonDict:
        """The full checksummed entry payload :meth:`put` would write."""
        spec_dict = spec.to_dict()
        return {
            "checksum": payload_checksum(
                CANONICAL.encode(result), CANONICAL.encode(spec_dict)
            ),
            "result": result,
            "spec": spec_dict,
        }

    # ---------------------------------------------------------------- reads

    def get(
        self, spec: ScenarioSpec, key: Optional[str] = None
    ) -> Optional[JsonDict]:
        """The cached result for ``spec``, or None on a miss.

        A **corrupt** entry (unparseable, checksum-failing or unstamped,
        misshapen, or holding another cell's spec) is also reported as a
        miss -- after being moved into the quarantine directory with a
        warning and counted in :attr:`quarantined_on_read` -- so the caller
        re-executes the damaged cell instead of trusting or crashing on it.
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
        return _read_entry(self._entry_file(spec, key))

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
            status, _result, defect = _read_entry(str(path))
            if status != STATUS_MISS:  # a miss: vanished mid-scan
                report.append((path, defect))
        return report

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
