"""Fs-commit-protocol rules (``fsio.*``).

The sweep fabric's durability story (PR 7's chaos soak) holds only if
every durable queue/cache file commits through the blessed atomic
helpers in :mod:`repro.scenarios._fsio` (``atomic_write_json_many`` and its
one-file form ``atomic_write_json``) -- tmp file, ``allow_nan=False``
JSON, fsync, atomic rename.  A raw ``open(..., "w")`` anywhere in the
scenarios tree reintroduces the torn-write bug class the soak chases
dynamically, so these rules make the protocol a static invariant:
content writes outside ``_fsio.py`` are findings, with inline
suppressions for the deliberate exceptions (the fault injector's
``write_torn`` *is* a simulated torn write).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.audit.engine import (
    Rule,
    SourceFile,
    file_checker,
)
from repro.analysis.audit.records import AuditRecord

RULE_RAW_WRITE = Rule(
    id="fsio.raw-write",
    summary="raw content write in the scenarios tree outside _fsio",
    hint="route the write through repro.scenarios._fsio.atomic_write_json "
    "(or atomic_write_json_many for files that finish together: tmp + "
    "fsync, then rename) so a crash can never leave a torn file",
)
RULE_STREAM_DUMP = Rule(
    id="fsio.stream-dump",
    summary="streaming json.dump in the scenarios tree outside _fsio",
    hint="json.dump straight onto a file handle tears on crash; use "
    "repro.scenarios._fsio.atomic_write_json (atomic_write_json_many for a "
    "group)",
)

#: open() modes that create/truncate content at the target path.
_WRITE_MODES = ("w", "x")

_WRITE_METHODS = frozenset({"write_text", "write_bytes"})

#: the tree whose durable writes must route through the blessed module,
#: and that module, the one allowed to perform raw content writes.
SCENARIOS_PREFIX = "src/repro/scenarios/"
FSIO_PATH = SCENARIOS_PREFIX + "_fsio.py"


def _write_mode(call: ast.Call) -> Optional[str]:
    """The mode string when ``call`` opens a file for writing, else None.

    Handles ``open(path, "w")`` / ``path.open("w")`` positionally and via
    ``mode=``.  Append mode is not a content write (the queue's clock
    sentinel touches files with ``"a"`` purely for their mtime).
    """
    mode_arg: Optional[ast.expr] = None
    if isinstance(call.func, ast.Name) and call.func.id == "open":
        if len(call.args) >= 2:
            mode_arg = call.args[1]
    elif isinstance(call.func, ast.Attribute) and call.func.attr == "open":
        if len(call.args) >= 1:
            mode_arg = call.args[0]
    else:
        return None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode_arg = keyword.value
    if isinstance(mode_arg, ast.Constant) and isinstance(mode_arg.value, str):
        mode = mode_arg.value
        if any(flag in mode for flag in _WRITE_MODES):
            return mode
    return None


@file_checker(RULE_RAW_WRITE, RULE_STREAM_DUMP)
def check_fsio(source: SourceFile) -> Iterator[AuditRecord]:
    if (
        not source.rel_path.startswith(SCENARIOS_PREFIX)
        or source.rel_path == FSIO_PATH
    ):
        return
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        mode = _write_mode(node)
        if mode is not None:
            yield AuditRecord(
                rule=RULE_RAW_WRITE.id,
                path=source.rel_path,
                line=node.lineno,
                severity=RULE_RAW_WRITE.severity,
                detail=f'raw open(..., "{mode}") outside the blessed '
                "atomic-write helper",
                hint=RULE_RAW_WRITE.hint,
            )
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _WRITE_METHODS
        ):
            yield AuditRecord(
                rule=RULE_RAW_WRITE.id,
                path=source.rel_path,
                line=node.lineno,
                severity=RULE_RAW_WRITE.severity,
                detail=f".{node.func.attr}() outside the blessed "
                "atomic-write helper",
                hint=RULE_RAW_WRITE.hint,
            )
            continue
        if source.call_qualname(node) == "json.dump":
            yield AuditRecord(
                rule=RULE_STREAM_DUMP.id,
                path=source.rel_path,
                line=node.lineno,
                severity=RULE_STREAM_DUMP.severity,
                detail="json.dump streams straight onto a file handle",
                hint=RULE_STREAM_DUMP.hint,
            )
