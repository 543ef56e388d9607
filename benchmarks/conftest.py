"""Shared benchmark configuration.

Each benchmark runs its figure's experiment once (rounds=1): these are
whole-simulation macro-benchmarks, not micro-benchmarks, and the interesting
outputs are the *figures' numbers*, which every bench also asserts against
the paper's qualitative shape before reporting timing.
"""

import os
import sys

import pytest


BENCHMARK_DIR = os.path.dirname(os.path.abspath(__file__))
# Benches assert against the derivations in ``tests/reference_models.py``;
# make it importable when this directory runs on its own.
sys.path.insert(0, os.path.join(os.path.dirname(BENCHMARK_DIR), "tests"))


def pytest_collection_modifyitems(items):
    """Every benchmark is a whole-figure (or timing-sensitive) run: mark
    them all ``slow`` so ``pytest -m "not slow"`` is the sub-minute smoke
    tier while plain ``pytest`` keeps running everything.  The hook sees
    the whole session's items, so restrict it to this directory."""
    for item in items:
        if os.path.dirname(os.path.abspath(str(item.fspath))) == BENCHMARK_DIR:
            item.add_marker(pytest.mark.slow)


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    """One result cache for the session, for benches that run the same
    ``tfrc-experiment`` row: fig03 / fig04 its fig03 row, fig09 / fig10
    its fig09 row, fig16 / fig17 its fig16 row (whose UCL cell is fig15's),
    so a later bench replays an earlier one's cells instead of simulating
    them again.  fig06 / fig07 do not share (the 60 s quick grid vs two
    one-cell ``fig06.run`` grids at 80 s, seeds 0 and 1), nor do fig11 /
    fig12 / fig13 (120 s, 150 s and the 100 s quick row)."""
    return str(tmp_path_factory.mktemp("sweep-cache"))
