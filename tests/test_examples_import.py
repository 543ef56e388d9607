"""Every script under ``examples/`` imports cleanly.

Import only: each example's ``main()`` runs a simulation.  A deletion in
``src/repro`` that breaks an example therefore fails tier-1, which is what
lets the ``reach.unused-name`` guard (``test_static_guards.py``) count
``examples/`` as a caller.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
