"""Cache-contract rules (``cache.*``).

Cache entries, queue payloads, and spec hashes all flow through strict
canonical JSON: ``allow_nan=False``, sorted keys (see
:meth:`repro.scenarios.spec.ScenarioSpec.canonical_json` and
:func:`repro.scenarios.cache.payload_checksum`).  Two things break that
contract silently:

* a scenario result function producing ``NaN``/``Infinity`` -- the cache
  rejects the entry at write time, failing the cell long after the bug;
* a ``json.dump(s)`` call *without* ``allow_nan=False`` -- it happily
  emits ``NaN`` tokens that strict parsers (and the cache's checksum
  canonicalization) reject, so the same value hashes on one path and
  crashes on another.

These rules catch both at audit time instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.audit.engine import (
    SRC_PREFIX,
    Rule,
    SourceFile,
    file_checker,
)
from repro.analysis.audit.records import AuditRecord

RULE_NON_FINITE = Rule(
    id="cache.non-finite-literal",
    summary="NaN/Infinity-capable literal inside a registered scenario",
    hint="scenario results must be strict JSON; clamp or drop the "
    "non-finite value before it reaches the result dict",
)
RULE_LENIENT_DUMP = Rule(
    id="cache.lenient-json-dump",
    summary="json.dump(s) without allow_nan=False",
    hint="pass allow_nan=False so NaN/Infinity fail at the producer "
    "instead of poisoning strict parsers downstream",
)

#: canonical names whose value is non-finite.
_NON_FINITE_NAMES = frozenset(
    {
        "math.nan",
        "math.inf",
        "numpy.nan",
        "numpy.inf",
        "numpy.NaN",
        "numpy.Inf",
        "numpy.NINF",
    }
)

_NON_FINITE_STRINGS = frozenset(
    {"nan", "inf", "infinity", "-inf", "-infinity", "+inf", "+infinity"}
)


def _in_registered_scenario(source: SourceFile, node: ast.AST) -> Optional[str]:
    """The scenario name when ``node`` sits inside a ``@register_scenario``
    function, else None."""
    func = source.enclosing(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    while func is not None:
        for decorator in func.decorator_list:  # type: ignore[union-attr]
            if not isinstance(decorator, ast.Call):
                continue
            name = source.qualname(decorator.func)
            bare = (
                decorator.func.id
                if isinstance(decorator.func, ast.Name)
                else None
            )
            if bare == "register_scenario" or (
                name is not None and name.endswith(".register_scenario")
            ):
                return func.name  # type: ignore[union-attr]
        func = source.enclosing(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return None


@file_checker(RULE_NON_FINITE, RULE_LENIENT_DUMP)
def check_cache_contract(source: SourceFile) -> Iterator[AuditRecord]:
    if not source.rel_path.startswith(SRC_PREFIX):
        return
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call):
            yield from _check_non_finite_call(source, node)
            yield from _check_lenient_dump(source, node)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            qual = source.qualname(node)
            if qual in _NON_FINITE_NAMES:
                scenario_fn = _in_registered_scenario(source, node)
                if scenario_fn is not None:
                    yield _non_finite(source, node, f"{qual} used in "
                                      f"registered scenario {scenario_fn}()")


def _non_finite(source: SourceFile, node: ast.AST, detail: str) -> AuditRecord:
    return AuditRecord(
        rule=RULE_NON_FINITE.id,
        path=source.rel_path,
        line=getattr(node, "lineno", 0),
        severity=RULE_NON_FINITE.severity,
        detail=detail,
        hint=RULE_NON_FINITE.hint,
    )


def _check_non_finite_call(
    source: SourceFile, call: ast.Call
) -> Iterator[AuditRecord]:
    """``float("nan")`` / ``float("inf")`` inside a registered scenario."""
    if not (
        isinstance(call.func, ast.Name)
        and call.func.id == "float"
        and len(call.args) == 1
        and isinstance(call.args[0], ast.Constant)
        and isinstance(call.args[0].value, str)
        and call.args[0].value.strip().lower() in _NON_FINITE_STRINGS
    ):
        return
    scenario_fn = _in_registered_scenario(source, call)
    if scenario_fn is not None:
        yield _non_finite(
            source, call,
            f'float("{call.args[0].value}") used in registered scenario '
            f"{scenario_fn}()",
        )


def _check_lenient_dump(
    source: SourceFile, call: ast.Call
) -> Iterator[AuditRecord]:
    name = source.call_qualname(call)
    if name not in ("json.dump", "json.dumps"):
        return
    for keyword in call.keywords:
        if keyword.arg == "allow_nan":
            value = keyword.value
            if isinstance(value, ast.Constant) and value.value is False:
                return
            break
        if keyword.arg is None:
            return  # **kwargs: cannot see the flag statically
    else:
        value = None
    detail = (
        f"{name}(...) without allow_nan=False"
        if value is None
        else f"{name}(...) with allow_nan not literally False"
    )
    yield AuditRecord(
        rule=RULE_LENIENT_DUMP.id,
        path=source.rel_path,
        line=call.lineno,
        severity=RULE_LENIENT_DUMP.severity,
        detail=detail,
        hint=RULE_LENIENT_DUMP.hint,
    )
