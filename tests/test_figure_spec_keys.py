"""Every figure's specs, pinned by their cell keys, at both CLI scales.

``tfrc-experiment all`` runs fifteen sweeps at either scale: one per
``runner.FIGURES`` row, plus a second one in the fig03 row (Figure 4's
damped sweep) and in the fig20 row (Figure 21's drop-rate sweep).  Each
cell is keyed ``<scenario>-<spec_hash>`` and the key files its cache
entry, so an edit to the figure layer that changes one parameter, default
or type of any spec moves a key here.  The sweeps are expanded, not
simulated: ``SweepRunner.run`` records the keys and stops, and the figure
entry point that started it returns None, so a row's next sweep starts.

``tests/figure_spec_keys.json`` holds one entry per sweep under ``quick``
(``--quick``) and ``full`` (no flag).  The quick entries were recorded
before the figure options were culled, the full ones from the per-figure
drivers the table replaced; running this module as a script rewrites the
file.
"""

import importlib
import json
from pathlib import Path

import pytest

from repro.experiments.runner import FIGURES
from repro.scenarios.sweep import SweepRunner

PINNED = Path(__file__).with_name("figure_spec_keys.json")
#: the names of the sweeps a row starts after its first one.
LATER_SWEEPS = {"fig03": ["fig03_damped"], "fig20": ["fig21"]}


class _Expanded(Exception):
    """Raised in place of simulating a sweep once its keys are recorded."""


def _expanding(start):
    """``start``, returning None once a sweep it starts has been expanded."""

    def call(*args, **kwargs):
        try:
            return start(*args, **kwargs)
        except _Expanded:
            return None

    return call


def expanded_keys(scale):
    """The cell keys of every sweep at ``scale``, in expansion order."""
    recorded = []
    patch = pytest.MonkeyPatch()

    def expand(self):
        recorded.append([cell.key for cell in self.cells()])
        raise _Expanded

    patch.setattr(SweepRunner, "run", expand)
    try:
        keys = {}
        for name, figure in sorted(FIGURES.items()):
            module = importlib.import_module(figure.run.rpartition(".")[0])
            for attr, value in list(vars(module).items()):
                if attr.startswith("run") and getattr(
                    value, "__module__", None
                ) == module.__name__:
                    patch.setattr(module, attr, _expanding(value))
            recorded.clear()
            figure.entry()(**getattr(figure, scale))
            names = [name, *LATER_SWEEPS.get(name, [])]
            assert len(recorded) == len(names), name
            keys.update(zip(names, recorded))
        return keys
    finally:
        patch.undo()


def test_every_quick_sweep_builds_its_pinned_specs():
    keys = expanded_keys("quick")
    assert len(keys) == 15
    # 37 cells, 36 specs: fig15's UCL cell is one of fig16's five.
    assert sum(map(len, keys.values())) == 37
    assert len({key for cells in keys.values() for key in cells}) == 36
    assert keys == json.loads(PINNED.read_text())["quick"]


def test_every_full_sweep_builds_its_pinned_specs():
    keys = expanded_keys("full")
    assert len(keys) == 15
    # 109 cells, 108 specs: fig15's UCL cell is one of fig16's five.
    assert sum(map(len, keys.values())) == 109
    assert len({key for cells in keys.values() for key in cells}) == 108
    assert keys == json.loads(PINNED.read_text())["full"]


if __name__ == "__main__":
    pinned = {scale: expanded_keys(scale) for scale in ("quick", "full")}
    PINNED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")
