"""The sweep options are declared once, in ``SweepRunner.__init__``.

How a grid executes -- ``parallel``, ``cache_dir``, ``progress``,
``executor``, ``queue_dir`` -- is ``SweepRunner``'s business.  Every figure
entry point that builds a sweep takes ``**sweep`` and hands it on verbatim,
so an option is added, renamed or validated in one signature, not sixteen.
A second function declaring one of the five, a figure module importing the
option types, a ``**kwargs`` dict popped by hand, or an ``assert`` standing in
for the checked ``SweepResult.complete_cells()`` means the plumbing is being
copied again.
"""

import ast
import functools
import importlib.util
from pathlib import Path

import pytest

from repro.experiments import (
    fig02_loss_interval as fig02,
    fig03_oscillation as fig03,
    fig05_loss_event_fraction as fig05,
    fig06_fairness_grid as fig06,
    fig08_smoothness as fig08,
    fig09_equivalence as fig09,
    fig11_onoff as fig11,
    fig14_queue_dynamics as fig14,
    fig18_predictor as fig18,
    fig19_increase as fig19,
    fig20_halving as fig20,
    internet,
)
from repro.experiments.runner import FIGURES

REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"
SWEEP_OPTIONS = {"parallel", "cache_dir", "progress", "executor", "queue_dir"}
OPTION_TYPES = {"ExecutorArg", "ProgressFn"}


def _quick(run, figure):
    """``run`` with the ``--quick`` keywords of ``FIGURES[figure]`` bound."""
    return functools.partial(run, **FIGURES[figure].quick)


#: every figure entry point that builds a sweep, as ``<module stem>:<name>``,
#: with its table row's ``--quick`` scale bound.
ENTRY_POINTS = {
    "fig02_loss_interval:run": _quick(fig02.run, "fig02"),
    "fig03_oscillation:run": _quick(fig03.run, "fig03"),
    "fig03_oscillation:run_both": _quick(fig03.run_both, "fig03"),
    "fig05_loss_event_fraction:run": _quick(fig05.run, "fig05"),
    "fig06_fairness_grid:run": _quick(fig06.run, "fig06"),
    "fig08_smoothness:run": _quick(fig08.run, "fig08"),
    "fig09_equivalence:run": _quick(fig09.run, "fig09"),
    "fig11_onoff:run": _quick(fig11.run, "fig11"),
    "fig14_queue_dynamics:run": _quick(fig14.run, "fig14"),
    "fig18_predictor:run": _quick(fig18.run, "fig18"),
    "fig19_increase:run": _quick(fig19.run, "fig19"),
    "fig20_halving:run": fig20.run,
    "fig20_halving:run_sweep": _quick(fig20.run_sweep, "fig20"),
    "fig20_halving:run_both": _quick(fig20.run_both, "fig20"),
    "internet:run_all": _quick(internet.run_all, "fig16"),
}


def _is_not_none_check(test):
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    )


def _reads_result(expr):
    return isinstance(expr, ast.Attribute) and expr.attr == "result"


def test_five_declarations_no_hand_rolled_forwarding():
    modules = sorted((REPRO / "experiments").glob("*.py"))
    assert len(modules) > 12, "nothing to scan under experiments/"
    declarations = []
    option_type_imports = []
    popped = []
    result_asserts = []
    takes_sweep = []
    for path in modules + [REPRO / "scenarios" / "sweep.py"]:
        tree = ast.parse(path.read_text(), str(path))
        methods = {
            id(node): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                option_type_imports += [
                    f"{path.name}:{alias.name}"
                    for alias in node.names
                    if alias.name in OPTION_TYPES and path.name != "sweep.py"
                ]
            if not isinstance(node, ast.FunctionDef):
                continue
            owner = methods.get(id(node))
            label = f"{owner}.{node.name}" if owner else node.name
            args = node.args
            declarations += [
                f"{label}({arg.arg})"
                for arg in args.posonlyargs + args.args + args.kwonlyargs
                if arg.arg in SWEEP_OPTIONS
            ]
            if args.kwarg is not None and path.name != "runner.py":
                takes_sweep.append(f"{path.stem}:{node.name}(**{args.kwarg.arg})")
            # locals bound from ``<x>.result`` (``data = cell.result``)
            result_names = {
                target.id
                for inner in ast.walk(node)
                if isinstance(inner, ast.Assign) and _reads_result(inner.value)
                for target in inner.targets
                if isinstance(target, ast.Name)
            }
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "pop"
                    and isinstance(inner.func.value, ast.Name)
                    and args.kwarg is not None
                    and inner.func.value.id == args.kwarg.arg
                ):
                    popped.append(f"{path.name}:{inner.lineno}")
                elif (
                    isinstance(inner, ast.Assert)
                    and _is_not_none_check(inner.test)
                    and (
                        _reads_result(inner.test.left)
                        or getattr(inner.test.left, "id", None) in result_names
                    )
                ):
                    result_asserts.append(f"{path.name}:{inner.lineno}")
    assert sorted(declarations) == sorted(
        f"SweepRunner.__init__({option})" for option in SWEEP_OPTIONS
    )
    assert option_type_imports == []
    assert popped == []
    assert result_asserts == []
    # ``**sweep`` means one thing everywhere: SweepRunner's options.
    assert sorted(takes_sweep) == sorted(
        [f"{name}(**sweep)" for name in ENTRY_POINTS]
        + ["sweep:run_single_cell(**sweep)"]
    )
    assert importlib.util.find_spec("repro.experiments.common") is None


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_unknown_sweep_option_rejected_before_any_cell_runs(name, tmp_path):
    progressed = []
    with pytest.raises(TypeError, match="bogus_sweep_option"):
        ENTRY_POINTS[name](
            bogus_sweep_option=1,
            cache_dir=str(tmp_path / "cache"),
            progress=lambda *call: progressed.append(call),
        )
    assert not (tmp_path / "cache").exists()
    assert progressed == []
