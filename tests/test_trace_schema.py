"""README's trace-schema table is what the tracer emits.

Statically, every ``record()`` call under ``src/repro`` whose category is a
string literal is a (category, emitter) row of the table.  At run time the
traced golden runs -- the traced mixed dumbbell and the traced TCP lossy
path -- emit exactly the table's categories, and each category's
records carry exactly the ``meta`` key sets its rows declare.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

from test_golden_digests import RUNS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
TRACED_RUNS = ("traced_mixed_dumbbell", "tcp_lossy_path_sack")


def _table_rows():
    """``(category, emitter, meta keys)`` per row of the README table."""
    readme = (ROOT / "README.md").read_text()
    table = readme.split("<!-- trace-schema:begin -->")[1].split(
        "<!-- trace-schema:end -->"
    )[0]
    rows = re.findall(
        r"^\| `(\w+)` \| `([\w/.]+)` \|[^|]*\|[^|]*\| ([^|]*) \|$",
        table, flags=re.MULTILINE,
    )
    assert rows, "no rows between the trace-schema markers"
    return [
        (category, emitter, frozenset(re.findall(r"`(\w+)`", meta)))
        for category, emitter, meta in rows
    ]


def _record_calls():
    """``(category, emitter)`` of every literal-category ``record()`` call."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call) or len(node.args) < 2:
                continue
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            category = node.args[1]
            if name == "record" and isinstance(category, ast.Constant) \
                    and isinstance(category.value, str):
                found.add((category.value, str(path.relative_to(SRC))))
    return found


def test_every_emit_site_has_a_row():
    declared = {(category, emitter) for category, emitter, _ in _table_rows()}
    assert _record_calls() == declared


def test_traced_golden_runs_emit_the_declared_categories_and_meta_keys():
    declared = defaultdict(set)
    for category, _, keys in _table_rows():
        declared[category].add(keys)
    emitted = defaultdict(set)
    for name in TRACED_RUNS:
        trace, _ = RUNS[name]()
        for _, category, _, _, meta in trace:
            pairs = ast.literal_eval(meta) if meta else []
            emitted[category].add(frozenset(key for key, _ in pairs))
    assert dict(emitted) == dict(declared)
