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
import math
from pathlib import Path

import pytest

from repro.scenarios.executors import _cell_alarm
from repro.sim.engine import SimulationError, Simulator

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


def _ticking_simulator():
    """A simulator whose one event re-arms itself every simulated second."""
    sim = Simulator()

    def tick():
        sim.schedule_in(1.0, tick)

    sim.schedule_in(1.0, tick)
    return sim


@pytest.mark.parametrize(
    "bounds", [{"until": math.nan}, {"max_events": math.nan}], ids=str
)
def test_a_nan_bound_is_rejected_instead_of_running_forever(bounds):
    sim = _ticking_simulator()
    # The alarm turns the hang this used to be into a CellTimeout failure.
    with _cell_alarm(5.0), pytest.raises(SimulationError, match="nan"):
        sim.run(**bounds)
    # Rejected before the loop: nothing ran, and the simulator is usable.
    assert sim.events_processed == 0
    assert sim.run(until=2.5) == 2.5
    assert sim.events_processed == 2


def test_the_other_run_bounds_keep_their_meaning():
    sim = _ticking_simulator()
    assert sim.run(max_events=3) == 3.0
    assert sim.run(until=1.0) == 3.0  # a past horizon runs nothing
    assert sim.run(until=5.0, max_events=10**9) == 5.0
    assert sim.events_processed == 5
    draining = Simulator()
    draining.schedule_in(1.0, lambda: None)
    assert draining.run(until=math.inf) == math.inf  # the heap empties
    assert draining.events_processed == 1
