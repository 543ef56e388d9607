"""Endpoints reach the scheduler through its public surface only.

``core/``, ``baselines/``, ``multicast/`` and the timers in
``sim/process.py`` also run on ``rt.RealtimeScheduler``, which has ``now``,
``schedule``, ``schedule_in`` and ``schedule_fast`` -- and no ``_now``,
``_heap`` or ``_seq``.  A hot-path edit that reads ``sim._now`` there (as
``tcp/`` and ``net/``, simulator-only, legitimately do) passes every
simulator test and breaks the real-time stack with a bare
``AttributeError``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

SCHEDULER_AGNOSTIC = ("core", "baselines", "multicast", "sim/process.py")
SIMULATOR_ONLY = {"_now", "_heap", "_seq"}
SCHEDULER_NAMES = {"sim", "_sim"}


def _modules():
    for entry in SCHEDULER_AGNOSTIC:
        path = SRC / entry
        found = [path] if path.is_file() else sorted(path.glob("*.py"))
        assert found, f"nothing to scan under {path}"
        yield from found


def _private_scheduler_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in SIMULATOR_ONLY:
            receiver = node.value
            name = getattr(receiver, "attr", getattr(receiver, "id", None))
            if name in SCHEDULER_NAMES:
                yield node.lineno, f"{name}.{node.attr}"


def test_scheduler_agnostic_code_uses_the_public_scheduler_surface():
    hits = [
        f"{path.relative_to(SRC)}:{lineno}: {access}"
        for path in _modules()
        for lineno, access in _private_scheduler_reads(
            ast.parse(path.read_text(), str(path))
        )
    ]
    assert hits == [], (
        "scheduler-agnostic rule: code under core/, baselines/, multicast/ "
        "and sim/process.py also runs on rt.RealtimeScheduler, which has "
        "now / schedule / schedule_in / schedule_fast but no _now, _heap or "
        f"_seq -- use sim.now: {hits}"
    )


def test_the_guard_sees_every_receiver_spelling():
    source = (
        "def f(self, sim):\n"
        "    a = sim._now\n"
        "    b = self.sim._heap\n"
        "    c = self._sim._seq\n"
        "    d = self._seq + self.sim.now\n"
    )
    assert [access for _, access in _private_scheduler_reads(ast.parse(source))] == [
        "sim._now", "sim._heap", "_sim._seq",
    ]
