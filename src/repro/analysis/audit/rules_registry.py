"""Registry-coherence rules (``registry.*``).

The scenario registry (``@register_scenario`` in
:mod:`repro.scenarios.spec`), the executor table
(``EXECUTOR_FACTORIES`` in :mod:`repro.scenarios.executors`, which binds
each name to its constructor and from which ``EXECUTOR_NAMES`` is
derived), the CLI's ``--executor`` choices, and every string that
*references* those names live in different files.  They drift silently: a
renamed executor still passes its own tests, but a ``== "vector"``
comparison elsewhere stops matching; a typo'd
``ScenarioSpec(scenario=...)`` literal only fails at run time.  This
checker cross-references all of them in one pass over the corpus.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.audit.engine import (
    SRC_PREFIX,
    Rule,
    SourceFile,
    project_checker,
)
from repro.analysis.audit.records import AuditRecord

RULE_DUPLICATE = Rule(
    id="registry.duplicate-scenario",
    summary="two @register_scenario functions claim the same name",
    hint="the second registration overwrites the first at import time; "
    "rename one",
)
RULE_EXECUTOR_DRIFT = Rule(
    id="registry.executor-name-drift",
    summary="executor name tables disagree",
    hint="the EXECUTOR_FACTORIES table, CLI --executor choices, and "
    "string comparisons must all agree",
)
RULE_UNREGISTERED = Rule(
    id="registry.unregistered-scenario-ref",
    summary="scenario-name literal not in the @register_scenario registry",
    hint="register the scenario or fix the name; unknown names only "
    "fail when the spec is executed",
)


def _module_constants(source: SourceFile) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` string constants."""
    constants: Dict[str, str] = {}
    for node in source.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not (isinstance(value, ast.Constant) and isinstance(value.value, str)):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                constants[target.id] = value.value
    return constants


def _resolve_name_literal(
    source: SourceFile, node: ast.expr, constants: Dict[str, str]
) -> Optional[str]:
    """A string literal, or a module constant holding one, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return None


def _is_call_to(source: SourceFile, call: ast.Call, bare: str) -> bool:
    """Does ``call`` invoke ``bare`` (directly or as a module attribute)?"""
    if isinstance(call.func, ast.Name) and call.func.id == bare:
        return True
    qual = source.qualname(call.func)
    return qual is not None and qual.endswith("." + bare)


def _executor_table(src: Sequence[SourceFile]) -> Set[str]:
    """String keys of the module-level ``EXECUTOR_FACTORIES = {...}``."""
    for source in src:
        for node in source.tree.body:
            if not (
                isinstance(node, (ast.Assign, ast.AnnAssign))
                and isinstance(node.value, ast.Dict)
            ):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if any(
                isinstance(t, ast.Name) and t.id == "EXECUTOR_FACTORIES"
                for t in targets
            ):
                return {
                    key.value
                    for key in node.value.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                }
    return set()


@project_checker(RULE_DUPLICATE, RULE_EXECUTOR_DRIFT, RULE_UNREGISTERED)
def check_registry_coherence(
    corpus: Sequence[SourceFile],
) -> Iterator[AuditRecord]:
    src = [s for s in corpus if s.rel_path.startswith(SRC_PREFIX)]
    constants = {s.rel_path: _module_constants(s) for s in src}

    # ------------------------------------------------ scenario registrations
    registered: Dict[str, Tuple[str, int]] = {}
    for source in src:
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                if not (
                    isinstance(decorator, ast.Call)
                    and decorator.args
                    and _is_call_to(source, decorator, "register_scenario")
                ):
                    continue
                name = _resolve_name_literal(
                    source, decorator.args[0], constants[source.rel_path]
                )
                if name is None:
                    continue
                if name in registered:
                    prev_path, prev_line = registered[name]
                    yield AuditRecord(
                        rule=RULE_DUPLICATE.id,
                        path=source.rel_path,
                        line=decorator.lineno,
                        severity=RULE_DUPLICATE.severity,
                        detail=f"scenario {name!r} already registered at "
                        f"{prev_path}:{prev_line}",
                        hint=RULE_DUPLICATE.hint,
                    )
                else:
                    registered[name] = (source.rel_path, decorator.lineno)

    table = _executor_table(src)

    # -------------------------------- references to executor/scenario names
    for source in src:
        consts = constants[source.rel_path]
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Compare) and table:
                yield from _check_executor_compare(source, node, table)
            if not isinstance(node, ast.Call):
                continue
            yield from _check_executor_cli(source, node)
            # scenario references
            ref: Optional[str] = None
            if _is_call_to(source, node, "ScenarioSpec"):
                for keyword in node.keywords:
                    if keyword.arg == "scenario":
                        ref = _resolve_name_literal(source, keyword.value, consts)
                if ref is None and node.args:
                    ref = _resolve_name_literal(source, node.args[0], consts)
            elif _is_call_to(source, node, "get_scenario") and node.args:
                ref = _resolve_name_literal(source, node.args[0], consts)
            if ref is not None and ref not in registered:
                yield AuditRecord(
                    rule=RULE_UNREGISTERED.id,
                    path=source.rel_path,
                    line=node.lineno,
                    severity=RULE_UNREGISTERED.severity,
                    detail=f"scenario name {ref!r} has no "
                    "@register_scenario registration",
                    hint=RULE_UNREGISTERED.hint,
                )


def _mentions_executor(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return "executor" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "executor" in node.attr.lower()
    return False


def _check_executor_compare(
    source: SourceFile, node: ast.Compare, table: Set[str]
) -> Iterator[AuditRecord]:
    """``something_executor == "literal"`` with an unknown literal."""
    operands = [node.left, *node.comparators]
    if not any(_mentions_executor(op) for op in operands):
        return
    for op in operands:
        if (
            isinstance(op, ast.Constant)
            and isinstance(op.value, str)
            and op.value not in table
        ):
            yield AuditRecord(
                rule=RULE_EXECUTOR_DRIFT.id,
                path=source.rel_path,
                line=node.lineno,
                severity=RULE_EXECUTOR_DRIFT.severity,
                detail=f"executor compared against {op.value!r}, which is "
                "not in EXECUTOR_FACTORIES",
                hint=RULE_EXECUTOR_DRIFT.hint,
            )


def _check_executor_cli(
    source: SourceFile, node: ast.Call
) -> Iterator[AuditRecord]:
    """``add_argument("--executor", ...)`` must take choices=EXECUTOR_NAMES."""
    if not (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "--executor"
    ):
        return
    for keyword in node.keywords:
        if keyword.arg == "choices":
            value = keyword.value
            if isinstance(value, ast.Name) and value.id == "EXECUTOR_NAMES":
                return
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "EXECUTOR_NAMES"
            ):
                return
            yield AuditRecord(
                rule=RULE_EXECUTOR_DRIFT.id,
                path=source.rel_path,
                line=node.lineno,
                severity=RULE_EXECUTOR_DRIFT.severity,
                detail="--executor choices is not the shared "
                "EXECUTOR_NAMES table",
                hint=RULE_EXECUTOR_DRIFT.hint,
            )
            return
    yield AuditRecord(
        rule=RULE_EXECUTOR_DRIFT.id,
        path=source.rel_path,
        line=node.lineno,
        severity=RULE_EXECUTOR_DRIFT.severity,
        detail="--executor defined without choices=EXECUTOR_NAMES",
        hint=RULE_EXECUTOR_DRIFT.hint,
    )
