"""``runner.FIGURES``: one row per figure id, checked without simulating.

A row names its entry point by dotted path so that importing the CLI
(which ``bench/workloads.py`` does for every workload) loads no figure
module, and its ``quick`` / ``full`` keyword sets are the only place a
figure's CLI scales are written: a misspelled or stale key must fail here,
before any cell runs.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.runner import FIGURES

SRC = Path(__file__).resolve().parent.parent / "src"
ROWS = sorted(FIGURES)


def test_importing_the_runner_loads_no_figure_module():
    loaded = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, repro.experiments.runner; print(*sorted(sys.modules))",
        ],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert "repro.experiments.runner" in loaded
    figure_modules = [
        name for name in loaded
        if name.startswith("repro.experiments.")
        and name.rpartition(".")[2].startswith(("fig", "internet"))
    ]
    assert figure_modules == []


def _unbound_keys(figure, keywords):
    """The keys of ``keywords`` no named parameter of ``figure``'s entry
    point takes (they would fall into ``**sweep``, SweepRunner's options);
    a missing required parameter raises ``TypeError``."""
    signature = inspect.signature(figure.entry())
    bound = signature.bind(**keywords)
    return [
        key for param in signature.parameters.values()
        if param.kind is param.VAR_KEYWORD
        for key in bound.arguments.get(param.name, {})
    ]


@pytest.mark.parametrize("scale", ["quick", "full"])
@pytest.mark.parametrize("name", ROWS)
def test_row_binds_to_its_entry_point(name, scale):
    figure = FIGURES[name]
    assert _unbound_keys(figure, getattr(figure, scale)) == []


def test_a_misspelled_or_missing_key_fails():
    assert _unbound_keys(FIGURES["fig08"], {"duration": 20.0, "sed": 1}) == ["sed"]
    with pytest.raises(TypeError, match="duration"):
        _unbound_keys(FIGURES["fig08"], {"durtion": 20.0})
    with pytest.raises(TypeError, match="initial_periods"):
        _unbound_keys(FIGURES["fig20"], {"initial_period": (100, 10)})


def test_both_scales_set_the_same_parameters():
    for name in ROWS:
        assert FIGURES[name].quick.keys() == FIGURES[name].full.keys(), name


def test_parser_choices_and_plot_help_come_from_the_table():
    parser = runner.build_parser()
    actions = {action.dest: action for action in parser._actions}
    assert actions["experiment"].choices == ROWS + ["all"]
    charted = [name for name in ROWS if FIGURES[name].chart]
    assert charted == ["fig02", "fig05", "fig09", "fig18", "fig20"]
    assert f"({', '.join(charted)};" in actions["plot"].help
