"""No constructor in ``src/repro`` takes a path-selection flag.

The simulator has one implementation of each layer.  These seven names used
to select a second one; a parameter, keyword, attribute, variable or string
key (``spec.extra[...]``) spelled like any of them means a second path is
being threaded back in.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

RETIRED = {
    "fast_timers", "columnar", "fastpath", "net_fastpath",
    "incremental_sack", "fast_scheduling", "endpoint_fastpath",
}


def _identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.keyword)):
            yield node.arg, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node


def test_no_retired_path_flag_in_src():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"nothing to scan under {SRC}"
    hits = [
        f"{path.relative_to(SRC)}:{getattr(node, 'lineno', '?')}: {name}"
        for path in modules
        for name, node in _identifiers(ast.parse(path.read_text(), str(path)))
        if name in RETIRED
    ]
    assert hits == []
