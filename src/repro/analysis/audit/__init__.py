"""tfrc-audit: AST-based invariant analysis for the repro tree.

The sweep fabric's correctness story rests on invariants that ordinary
tests only probe dynamically: simulations must be deterministic functions
of their spec, durable queue/cache state must commit through the blessed
atomic-write protocol (:mod:`repro.scenarios._fsio`), cached cell results
must be strict canonical JSON, the scenario/executor registries must agree
with every name written down elsewhere, and expensive tests must carry
``@pytest.mark.slow``.  This package enforces those invariants statically:
it parses the whole ``src/repro`` tree (plus ``tests/``) with :mod:`ast`
and runs a registry of checkers, one per invariant family:

``determinism.*``
    wall-clock reads, global-RNG use, unsorted directory listings, and
    set-order-dependent iteration inside simulation/scenario code paths.
``fsio.*``
    raw ``open(..., "w")`` / ``write_text`` / ``json.dump`` in the
    scenarios tree outside :mod:`repro.scenarios._fsio`.
``cache.*``
    NaN/Infinity-capable expressions inside scenario result functions and
    JSON serialization without ``allow_nan=False``.
``registry.*``
    drift between ``@register_scenario`` names, ``EXECUTOR_NAMES``, CLI
    ``--executor`` choices, and scenario-name references.
``tests.*``
    heavyweight tests (big sweep grids / long simulated durations)
    missing ``@pytest.mark.slow``.
``twin.*``
    scalar/vector kernel lockstep: declared twin pairs whose bodies
    lower to different arithmetic traces, pairwise reductions, dtype
    narrowing, ops outside the blessed float64 set, and vector-named
    functions with no declared scalar twin
    (:mod:`repro.analysis.audit.rules_twins`).

Findings share one record schema (rule / path / line / severity / detail)
with ``tfrc-sweep-fsck --json`` (see :mod:`repro.analysis.audit.records`).
A finding is accepted in exactly two ways, both at the source and both
with a written reason: an inline ``# tfrc-audit: ignore[rule] -- why``
suppression, or an entry in the per-layer ``DEFAULT_ALLOWLIST`` table.
Any other finding fails the run.

Entry point: ``tfrc-audit`` (:mod:`repro.analysis.audit.cli`).
"""

from repro.analysis.audit.engine import (
    AllowEntry,
    AuditReport,
    run_audit,
    run_audit_report,
)
from repro.analysis.audit.records import (
    AuditRecord,
    finding_record,
    read_findings,
)

__all__ = [
    "AllowEntry",
    "AuditRecord",
    "AuditReport",
    "finding_record",
    "read_findings",
    "run_audit",
    "run_audit_report",
]
