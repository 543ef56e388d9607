"""Atomic filesystem primitives for the sweep fabric's durable state.

Every durable JSON file the fabric trusts -- result-cache entries, queue
tasks/claims/done markers, failure records, dead letters, fault-plan state
-- commits through one writer, :func:`atomic_write_json_many`, whose unit
of durability is the **group** of files that finish together (a lockstep
batch's cache entries; :func:`atomic_write_json` is the group of one):

1. **write** -- each entry goes to its own ``<name>.tmp.<nonce>`` beside
   its target, is fsynced and closed (no descriptor outlives its entry);
2. **rename** -- once *every* tmp of the group is durable: per entry, the
   ``faults.on_atomic_write`` hook fires and the tmp moves onto its name;
3. **barrier** -- one fsync per distinct parent directory makes the
   renames themselves durable: N entries cost N + 1 fsyncs, not 2N.

The invariant: **no entry is visible at its final name before its bytes
are durable** -- else a crash between rename and writeback can leave a
zero-length or torn file at the *final* name, which readers would have to
treat as corruption instead of a clean miss.  A crash mid-group leaves the
entries already renamed whole, the rest absent (their cells re-execute)
and ``*.tmp.*`` litter that ``tfrc-sweep-fsck --repair`` clears; an error
the process survives removes its own tmp files before propagating.  The
read side, :func:`read_json`, treats missing/corrupt/partial files as
``None``, so readers racing a writer (or finding the debris of a crashed
one) see a clean miss instead of an exception.

This module is the **single blessed owner of raw content writes** in
``repro.scenarios``: the fsio guard in ``tests/test_static_guards.py`` flags
any ``open(..., "w")`` / ``write_text`` / ``json.dump`` in the scenarios tree
outside this file, so a torn-write bug class (chased dynamically by the
PR 7 chaos soak) cannot be reintroduced silently.  Shared by the result
cache (:mod:`repro.scenarios.cache`), the file queue
(:mod:`repro.scenarios.filequeue`) and its coordinator
(:mod:`repro.scenarios.executors`), fault-injection state
(:mod:`repro.scenarios.faults`), and ``tfrc-sweep-fsck``.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

JsonDict = Dict[str, Any]


def atomic_write_json_many(
    entries: Iterable[Tuple[Path, Dict[str, Any]]],
    *,
    durable: bool = True,
    _fault_hook: bool = True,
) -> None:
    """Commit ``(path, payload)`` entries as one group (module docstring).

    Payloads are strict JSON (``allow_nan=False``); one that cannot be
    (NaN, a non-JSON type) fails the write phase, before anything of the
    group is renamed.  A failure at any point -- bad value, full disk, an
    exception out of the fault hook -- leaves no tmp file behind.  Pass
    ``durable=False`` (no fsyncs) only for state whose loss is harmless
    (e.g. fault-injection log records).

    ``_fault_hook=False`` is reserved for :mod:`repro.scenarios.faults`
    itself: the fault layer's own state files (plan dumps, fired-fault log
    records) must not feed back into the fault schedule they implement.
    """
    staged: List[Tuple[Path, Path]] = []  # (tmp, final)
    renamed = 0
    try:
        for path, payload in entries:
            tmp = path.with_name(
                f"{path.name}.tmp.{os.getpid()}-{uuid.uuid4().hex[:8]}"
            )
            staged.append((tmp, path))
            # one write of the whole text (json.dump writes per token)
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
            with tmp.open("w", encoding="utf-8") as fh:
                fh.write(text)
                if durable:
                    fh.flush()
                    os.fsync(fh.fileno())
        if _fault_hook:
            # Imported lazily: faults routes its own state files through
            # this helper, so a top-level import would cycle.
            from repro.scenarios import faults
        for tmp, path in staged:
            if _fault_hook:
                faults.on_atomic_write(path)
            tmp.replace(path)
            renamed += 1
    except BaseException:
        for tmp, _path in staged[renamed:]:
            tmp.unlink(missing_ok=True)
        raise
    if durable:
        # Best-effort -- not every filesystem/platform supports opening a
        # directory for fsync, and losing only the rename (not the data)
        # degrades to a clean cache miss.
        for parent in dict.fromkeys(path.parent for _tmp, path in staged):
            try:
                dir_fd = os.open(str(parent), os.O_RDONLY)
            except OSError:  # pragma: no cover - platform-dependent
                continue
            try:
                os.fsync(dir_fd)
            except OSError:  # pragma: no cover - platform-dependent
                pass
            finally:
                os.close(dir_fd)


def atomic_write_json(
    path: Path,
    payload: Dict[str, Any],
    *,
    durable: bool = True,
    _fault_hook: bool = True,
) -> None:
    """:func:`atomic_write_json_many` for a group of one file."""
    atomic_write_json_many(
        [(path, payload)], durable=durable, _fault_hook=_fault_hook
    )


def read_json(path: Path) -> Optional[JsonDict]:
    """Best-effort JSON read: None on missing/corrupt/partial files."""
    try:
        with path.open("r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None
