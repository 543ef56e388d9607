"""A sweep cell executes in exactly one place under ``src/repro/scenarios``.

``execute_cells`` is the only caller of ``run_scenario`` and of
``run_vector_batch``; transports (the local executor, the file queue and its
worker) differ in how cells reach it, never in how a cell runs.  A second
call site, a third ``SweepExecutor`` subclass, or a function-level import
between ``executors`` and ``vector`` (the shape the old import cycle forced)
means a copy of the execution step is being threaded back in.
"""

import ast
from pathlib import Path

SCENARIOS = (
    Path(__file__).resolve().parent.parent / "src" / "repro" / "scenarios"
)

#: function -> the module that defines it (its own body is not a call site).
SINGLE_CALLER = {"run_scenario": "spec.py", "run_vector_batch": "vector.py"}

NO_LATE_IMPORT = {"repro.scenarios.vector", "repro.scenarios.executors"}


def _name(expr):
    """``f`` for ``f`` and for ``module.f``; "" for anything else."""
    return expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", "")


def test_one_execution_site_two_executors_no_late_imports():
    modules = sorted(SCENARIOS.glob("*.py"))
    assert modules, f"nothing to scan under {SCENARIOS}"
    call_sites = {name: [] for name in SINGLE_CALLER}
    executors = []
    late_imports = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _name(node.func)
                if name in SINGLE_CALLER and path.name != SINGLE_CALLER[name]:
                    call_sites[name].append(path.name)
            elif isinstance(node, ast.ClassDef):
                if "SweepExecutor" in map(_name, node.bases):
                    executors.append(node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.ImportFrom):
                        imported = {inner.module}
                    elif isinstance(inner, ast.Import):
                        imported = {alias.name for alias in inner.names}
                    else:
                        continue
                    if imported & NO_LATE_IMPORT:
                        late_imports.append(f"{path.name}:{inner.lineno}")
    assert call_sites == {
        "run_scenario": ["executors.py"],
        "run_vector_batch": ["executors.py"],
    }
    assert sorted(executors) == ["FileQueueExecutor", "LocalExecutor"]
    assert late_imports == []
