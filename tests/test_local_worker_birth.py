"""A local queue worker has one birth: a ``multiprocessing`` child of the
coordinator running ``tfrc-sweep-worker``'s ``main``.

``FileQueueExecutor._spawn_local_workers`` used to boot a fresh interpreter
per worker (``Popen([sys.executable, "-m", "repro.scenarios.worker", ...])``
with ``sys.path`` joined into ``PYTHONPATH``); a second way to start one
growing back beside the first is what the AST guard refuses.  The rest pins
what the new birth must not inherit by accident (the coordinator's fault
plan), what it must not leave behind (zombies, orphans), and the
coordinator's answer when every local worker dies.
"""

import ast
import json
import multiprocessing
import sys
from pathlib import Path

import pytest

import _executor_probe  # noqa: F401  (registers the "executor_probe" scenario)
from repro.scenarios import (
    FileQueue,
    FileQueueExecutor,
    ScenarioSpec,
    SweepCellError,
    SweepRunner,
    faults,
)
from repro.scenarios import executors as executors_mod

BASE = ScenarioSpec("executor_probe", seed=3, extra={"x": 0})
GRID = {"extra.x": [1, 2, 3, 4]}
QUEUE_KW = dict(poll_interval=0.02, lease_timeout=30.0)

forked = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a patched or installed coordinator state reaches the child "
    "only through fork",
)


def _queue_sweep(tmp_path, grid=GRID, **executor_kw):
    executor = FileQueueExecutor(
        tmp_path / "q", **{"local_workers": 2, **QUEUE_KW, **executor_kw}
    )
    return SweepRunner(
        BASE, grid, cache_dir=str(tmp_path / "cache"), executor=executor
    ).run()


class TestOneBirth:
    def test_executors_module_cannot_boot_an_interpreter(self):
        source = Path(executors_mod.__file__).read_text(encoding="utf-8")
        names, strings = set(), []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[0])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.append(node.value)
        assert not names & {"executable", "Popen", "subprocess", "execv"}
        assert not [text for text in strings if "PYTHONPATH" in text]
        # ...and the one birth there is goes through the worker's own main
        assert "_local_worker" in names and "multiprocessing" in names


@forked
class TestAllLocalWorkersDie:
    def test_names_exit_codes_and_withdraws_unclaimed_tasks(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            executors_mod, "_local_worker", lambda argv: sys.exit(3)
        )
        children_seen = []  # one entry per housekeeping round
        reclaim = FileQueueExecutor._reclaim_expired

        def counting_reclaim(self, *args):
            children_seen.append(len(multiprocessing.active_children()))
            return reclaim(self, *args)

        monkeypatch.setattr(
            FileQueueExecutor, "_reclaim_expired", counting_reclaim
        )
        with pytest.raises(SweepCellError) as excinfo:
            _queue_sweep(tmp_path, lease_timeout=0.2)
        message = str(excinfo.value)
        assert "all 2 local sweep workers exited unexpectedly" in message
        assert "exit codes [3, 3]" in message
        assert f"{len(GRID['extra.x'])} cell(s) unfinished" in message
        # given up on the third consecutive round that found them all dead
        assert children_seen.count(0) <= 3
        fq = FileQueue(tmp_path / "q")
        assert list(fq.tasks.glob("*.json")) == []
        assert list(fq.claims.glob("*.json")) == []
        assert multiprocessing.active_children() == []


class TestNoProcessLeftBehind:
    def test_after_a_clean_and_after_a_failing_sweep(self, tmp_path):
        clean = _queue_sweep(tmp_path / "clean")
        assert [cell.result["x"] for cell in clean.cells] == GRID["extra.x"]
        assert clean.executor == "queue x2"
        assert multiprocessing.active_children() == []

        with pytest.raises(SweepCellError, match="probe exploded on x=2"):
            _queue_sweep(
                tmp_path / "failing",
                grid={**GRID, "extra.boom": [2]},
                max_attempts=1,
            )
        assert multiprocessing.active_children() == []


@forked
class TestFaultPlanComesFromTheEnvironmentAlone:
    """The rule an exec'd worker obeyed by construction: it sees the plan
    ``TFRC_FAULT_PLAN`` names and nothing else."""

    @pytest.fixture(autouse=True)
    def _clean_fault_state(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        faults.uninstall()
        yield
        faults.uninstall()

    @staticmethod
    def _plan(tmp_path, site):
        return faults.FaultPlan(
            seed=5, rates={site: 1.0}, delay_seconds=0.0,
            log_dir=str(tmp_path / "fired"),
        )

    def test_plan_exported_after_coordinator_cached_none_still_fires(
        self, tmp_path, monkeypatch
    ):
        assert faults.active() is None  # the coordinator's lookup, cached
        plan = self._plan(tmp_path, "delayed_rename")
        monkeypatch.setenv(
            faults.ENV_VAR, str(plan.dump(tmp_path / "plan.json"))
        )
        sweep = _queue_sweep(tmp_path, local_workers=1)
        assert all(cell.result is not None for cell in sweep.cells)
        assert faults.active() is None  # nothing re-read here
        fired = [
            json.loads(path.read_text())
            for path in (tmp_path / "fired").glob("*.json")
        ]
        # only a worker could have logged these: one per file it renamed
        assert {record["site"] for record in fired} == {"delayed_rename"}
        assert len(fired) >= len(sweep.cells)

    def test_plan_installed_in_coordinator_does_not_leak_into_workers(
        self, tmp_path
    ):
        # a site only workers evaluate, certain to fire if they held the plan
        faults.install(self._plan(tmp_path, "torn_cache_write"))
        sweep = _queue_sweep(tmp_path, local_workers=1)
        assert all(cell.result is not None for cell in sweep.cells)
        assert not (tmp_path / "fired").exists()
        assert FileQueue(tmp_path / "q").failure_counts() == {}
