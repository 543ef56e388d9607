"""Test-tier hygiene rules (``tests.*``).

CI's fast tier runs ``pytest -m "not slow"`` under a wall-time budget;
one unmarked heavyweight test erodes it for every push.  Wall time here
is dominated by *simulated work* -- sweep grid size times simulated
``duration`` seconds -- which is statically visible: grids are dict
literals of list literals, durations are numeric literals.  This rule
estimates each unmarked test's simulated work and flags tests over the
threshold (or with enormous grids regardless of duration), honoring
``@pytest.mark.slow`` on the function, its class, or the module's
``pytestmark``.

The estimate is deliberately conservative: durations only count when a
literal is visible (a test inheriting an unknowable duration is not
guessed at), so the rule has no opinion on tests it cannot read.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.analysis.audit.engine import (
    TESTS_PREFIX,
    Rule,
    SourceFile,
    file_checker,
)
from repro.analysis.audit.records import AuditRecord

RULE_MISSING_SLOW = Rule(
    id="tests.missing-slow-marker",
    summary="heavyweight test without @pytest.mark.slow",
    hint="mark it @pytest.mark.slow (CI's fast tier runs -m 'not slow') "
    "or shrink the grid/duration",
)

#: call names that execute simulated work, with how many cells one call is.
_SINGLE_CELL_CALLS = frozenset({"run_scenario", "run_single_cell"})

#: flag unmarked tests whose statically estimated simulated work (grid
#: cells x duration seconds) reaches this threshold...
SLOW_WORK_THRESHOLD = 600.0
#: ...or whose grid alone reaches this many cells.
SLOW_CELL_THRESHOLD = 256


def _is_slow_marker(node: ast.expr) -> bool:
    """``pytest.mark.slow`` (or any ``...mark.slow`` attribute chain)."""
    if isinstance(node, ast.Call):  # pytest.mark.slow(reason=...) form
        node = node.func
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "slow"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "mark"
    )


def _module_marked_slow(source: SourceFile) -> bool:
    for node in source.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "pytestmark"
            for t in node.targets
        ):
            continue
        values = (
            node.value.elts
            if isinstance(node.value, (ast.List, ast.Tuple))
            else [node.value]
        )
        if any(_is_slow_marker(v) for v in values):
            return True
    return False


def _max_duration_literal(tree: ast.AST) -> Optional[float]:
    """The largest ``duration`` literal visible under ``tree``, if any.

    Looks at ``duration=<number>`` keywords and ``"duration": <number>``
    dict entries -- the two ways specs and override grids spell it.
    """
    best: Optional[float] = None

    def consider(value: ast.expr) -> None:
        nonlocal best
        if isinstance(value, ast.Constant) and isinstance(
            value.value, (int, float)
        ):
            number = float(value.value)
            best = number if best is None else max(best, number)

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg == "duration":
                    consider(keyword.value)
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and key.value.split(".")[-1] == "duration"
                ):
                    consider(value)
    return best


def _grid_cells(call: ast.Call) -> int:
    """Statically estimated cell count of a ``SweepRunner(...)`` call."""
    grid: Optional[ast.expr] = None
    if len(call.args) >= 2:
        grid = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "grid":
            grid = keyword.value
    if not isinstance(grid, ast.Dict):
        return 1
    cells = 1
    for value in grid.values:
        if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
            cells *= max(1, len(value.elts))
    return cells


def _loop_multiplier(source: SourceFile, node: ast.AST, stop: ast.AST) -> int:
    """Product of constant ``range(N)`` loops enclosing ``node`` in ``stop``."""
    multiplier = 1
    current = source.parent(node)
    while current is not None and current is not stop:
        if isinstance(current, (ast.For, ast.AsyncFor)):
            it = current.iter
            if (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id == "range"
                and it.args
                and isinstance(it.args[-1 if len(it.args) < 3 else 1], ast.Constant)
            ):
                bound = it.args[-1 if len(it.args) < 3 else 1].value
                if isinstance(bound, int) and bound > 0:
                    multiplier *= bound
        current = source.parent(current)
    return multiplier


def _estimated_cells(source: SourceFile, func: ast.AST) -> int:
    cells = 0
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        name = (
            node.func.id
            if isinstance(node.func, ast.Name)
            else node.func.attr
            if isinstance(node.func, ast.Attribute)
            else None
        )
        if name == "SweepRunner":
            cells += _grid_cells(node) * _loop_multiplier(source, node, func)
        elif name in _SINGLE_CELL_CALLS:
            cells += _loop_multiplier(source, node, func)
    return cells


@file_checker(RULE_MISSING_SLOW)
def check_test_tiers(source: SourceFile) -> Iterator[AuditRecord]:
    if not source.rel_path.startswith(TESTS_PREFIX):
        return
    if _module_marked_slow(source):
        return
    # Module default duration: literals in module-level statements only
    # (shared BASE specs), never inside other tests' bodies.
    module_duration: Optional[float] = None
    for stmt in source.tree.body:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        found = _max_duration_literal(stmt)
        if found is not None:
            module_duration = (
                found
                if module_duration is None
                else max(module_duration, found)
            )

    def walk(body: List[ast.stmt], class_slow: bool) -> Iterator[AuditRecord]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                slow = class_slow or any(
                    _is_slow_marker(d) for d in node.decorator_list
                )
                yield from walk(node.body, slow)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("test"):
                    continue
                if class_slow or any(
                    _is_slow_marker(d) for d in node.decorator_list
                ):
                    continue
                cells = _estimated_cells(source, node)
                if cells == 0:
                    continue
                duration = _max_duration_literal(node)
                if duration is None:
                    duration = module_duration
                work = cells * duration if duration is not None else None
                heavy = cells >= SLOW_CELL_THRESHOLD or (
                    work is not None and work >= SLOW_WORK_THRESHOLD
                )
                if heavy:
                    shown_work = (
                        f"~{work:.0f} simulated seconds"
                        if work is not None
                        else "unknown simulated seconds"
                    )
                    yield AuditRecord(
                        rule=RULE_MISSING_SLOW.id,
                        path=source.rel_path,
                        line=node.lineno,
                        severity=RULE_MISSING_SLOW.severity,
                        detail=f"{node.name} runs ~{cells} cell(s) x "
                        f"{duration if duration is not None else '?'}s "
                        f"({shown_work}) without @pytest.mark.slow",
                        hint=RULE_MISSING_SLOW.hint,
                    )

    yield from walk(source.tree.body, False)
