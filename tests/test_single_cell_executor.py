"""A sweep cell executes in exactly one place under ``src/repro/scenarios``.

``execute_cells`` is the only caller of ``run_scenario`` and of
``run_vector_batch``; transports (the local executor, the file queue and its
worker) differ in how cells reach it, never in how a cell runs.  A second
call site, a third ``SweepExecutor`` subclass, or a function-level import
between ``executors`` and ``vector`` (the shape the old import cycle forced)
means a copy of the execution step is being threaded back in.

The file queue is the transport that stays out of it: ``filequeue.py`` owns
the on-disk protocol and the retry policy (``FileQueue.fail_attempt``, the
only place a failed cell is republished), a worker leases one cell at a
time, and lockstep batching is the local executor's business alone.  The
second test keeps the queue's modules that way -- and keeps their
functions short enough to read.  The third keeps one count of a cell's
failed attempts (its failure records) and one copy of each recovery rule.
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


FABRIC = ("executors.py", "filequeue.py", "worker.py", "fsck.py")
RETIRED = ("vector_batch", "batch_limit", "batch_kill")
MAX_FUNCTION_LINES = 120


def _attr_calls(tree, attr):
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
    ]


def test_queue_transport_leases_one_cell_and_owns_its_retry_policy():
    sources = {name: (SCENARIOS / name).read_text() for name in FABRIC}
    trees = {name: ast.parse(text, name) for name, text in sources.items()}

    worker_imports = {
        node.module
        for node in ast.walk(trees["worker.py"])
        if isinstance(node, ast.ImportFrom)
    }
    assert "repro.scenarios.vector" not in worker_imports
    # republishing is FileQueue.fail_attempt's job: the coordinator keeps
    # first publication and the stranded-cell backstop, the worker nothing
    assert _attr_calls(trees["worker.py"], "enqueue") == []
    assert len(_attr_calls(trees["executors.py"], "enqueue")) == 2

    classes = {
        node.name: node
        for node in ast.walk(trees["executors.py"])
        if isinstance(node, ast.ClassDef)
    }
    assert "FileQueue" not in classes  # it lives in filequeue.py
    queue_executor = ast.get_source_segment(
        sources["executors.py"], classes["FileQueueExecutor"]
    )
    lockstep_free = {
        "worker.py": sources["worker.py"],
        "filequeue.py": sources["filequeue.py"],
        "faults.py": (SCENARIOS / "faults.py").read_text(),
        "FileQueueExecutor": queue_executor,
    }
    assert [
        (where, word)
        for where, text in lockstep_free.items()
        for word in RETIRED
        if word in text
    ] == []

    too_long = [
        f"{name}:{node.name} ({node.end_lineno - node.lineno + 1} lines)"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.end_lineno - node.lineno + 1 > MAX_FUNCTION_LINES
    ]
    assert too_long == []


def _is_const(node, value):
    return isinstance(node, ast.Constant) and node.value == value


def test_failure_records_are_the_only_attempts_count():
    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted(SCENARIOS.glob("*.py"))
    }
    # nobody hands the queue a count: it numbers a record from the records
    took_a_count = [
        node.name
        for node in ast.walk(trees["filequeue.py"])
        if isinstance(node, ast.FunctionDef)
        and node.name in ("fail_attempt", "record_failure")
        and "attempts" in [a.arg for a in node.args.args + node.args.kwonlyargs]
    ]
    assert took_a_count == []
    # ... and nobody copies one into a task payload
    writes = [
        f"{name}:{node.lineno}"
        for name in ("executors.py", "worker.py", "fsck.py")
        for node in ast.walk(trees[name])
        if isinstance(node, ast.Dict)
        and any(key is not None and _is_const(key, "attempts") for key in node.keys)
    ]
    assert writes == []
    # the one read left is of a done marker, which records how many attempts
    # had failed when the cell finished
    reads = []
    for name, tree in trees.items():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                subscript = isinstance(node, ast.Subscript) and _is_const(
                    node.slice, "attempts"
                )
                get = (
                    isinstance(node, ast.Call)
                    and _name(node.func) == "get"
                    and node.args
                    and _is_const(node.args[0], "attempts")
                )
                if subscript or get:
                    reads.append(f"{name}:{function.name}")
    assert reads == ["executors.py:_collect"]
    # each recovery rule is written once, behind FileQueue: dead-lettering
    # (dead_letter is quarantine_cell's caller) and the lease-age arithmetic
    assert [
        (name, len(_attr_calls(tree, "quarantine_cell")))
        for name, tree in trees.items()
        if _attr_calls(tree, "quarantine_cell")
    ] == [("filequeue.py", 1)]
    assert [
        (name, len(_attr_calls(tree, "fs_now")))
        for name, tree in trees.items()
        if _attr_calls(tree, "fs_now")
    ] == [("filequeue.py", 1)]
