"""Every figure's specs, pinned by their cell keys.

``tfrc-experiment all --quick`` runs fifteen sweeps: one per figure, plus
fig03's damped sweep (Figure 4) and fig20's drop-rate sweep (Figure 21).
Each cell is keyed ``<scenario>-<spec_hash>`` and the key files its cache
entry, so an edit to the figure layer that changes one parameter, default
or type of any spec moves a key here.  The sweeps are expanded, not
simulated: ``SweepRunner.run`` records the keys and stops.

``tests/figure_spec_keys.json`` was recorded before the figure options were
culled; running this module as a script rewrites it.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import fig03_oscillation as fig03
from repro.experiments import fig20_halving as fig20
from repro.experiments import runner
from repro.scenarios.sweep import SweepRunner

PINNED = Path(__file__).with_name("figure_spec_keys.json")


class _Expanded(Exception):
    """Raised in place of simulating a sweep once its keys are recorded."""


def _quick_sweeps():
    """``name`` -> zero-argument call that starts one ``--quick`` sweep."""
    sweeps = {
        name: lambda name=name: runner.EXPERIMENTS[name](True, False)
        for name in runner.EXPERIMENTS
    }
    # The second sweep of each two-sweep figure, which the first one's
    # stop never reaches: the quick CLI's own arguments.
    sweeps["fig03_damped"] = lambda: fig03.run(
        buffer_sizes=(8, 32), interpacket_adjustment=True, duration=30.0
    )
    sweeps["fig21"] = lambda: fig20.run_sweep(initial_periods=(100, 10))
    return sweeps


def expanded_keys():
    """The cell keys of every quick sweep, in expansion order."""
    recorded = {}
    patch = pytest.MonkeyPatch()

    def expand(self):
        recorded["keys"] = [cell.key for cell in self.cells()]
        raise _Expanded

    patch.setattr(SweepRunner, "run", expand)
    try:
        keys = {}
        for name, start in sorted(_quick_sweeps().items()):
            recorded.clear()
            with pytest.raises(_Expanded):
                start()
            keys[name] = recorded["keys"]
        return keys
    finally:
        patch.undo()


def test_every_quick_sweep_builds_its_pinned_specs():
    keys = expanded_keys()
    assert len(keys) == 15
    # 37 cells, 36 specs: fig15's UCL cell is one of fig16's five.
    assert sum(map(len, keys.values())) == 37
    assert len({key for cells in keys.values() for key in cells}) == 36
    assert keys == json.loads(PINNED.read_text())


if __name__ == "__main__":
    PINNED.write_text(json.dumps(expanded_keys(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")
