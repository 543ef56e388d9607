"""Group commit: one durability barrier per executed group.

The unit of durability in the sweep fabric is the group of files that
finish together.  ``_fsio.atomic_write_json_many`` writes and fsyncs every
tmp file, *then* renames them (firing the fault hook per entry), then
fsyncs each distinct parent directory once; ``ResultCache.put_many`` is its
cache-entry form, and ``atomic_write_json`` / ``ResultCache.put`` are the
groups of one.  Pinned here:

* the **ordering** and **crash consistency** of the batch writer, with
  ``os.fsync`` and ``Path.replace`` recorded -- no entry is visible at its
  final name before its bytes are durable;
* the **structure**: under ``src/repro/scenarios`` the cache is written from
  exactly two places (the local executor's group commit, the worker), and
  the runner-side commit (``SweepRunner._finish`` /
  ``CellCompletion.already_cached``) is gone;
* the **price**: a lockstep sweep pays at most ``cells + groups`` fsyncs,
  and its files stay byte-identical to a serial run's.
"""

import ast
import json
import os
import stat
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from test_vector_executor import grid_spec

from repro.scenarios import (
    ResultCache,
    ScenarioSpec,
    SweepRunner,
    faults,
)
from repro.scenarios import _fsio
from repro.scenarios.cache import verify_entry
from repro.scenarios.fsck import audit
from repro.scenarios.vector import lockstep_group

SRC = Path(__file__).resolve().parent.parent / "src"
SCENARIOS = SRC / "repro" / "scenarios"


def _specs(n):
    return [ScenarioSpec("group_commit_probe", seed=i) for i in range(n)]


def _items(n):
    return [(spec, {"value": spec.seed}) for spec in _specs(n)]


@pytest.fixture
def recorded(monkeypatch):
    """Every ``os.fsync`` and ``Path.replace``, in order.

    A file fsync is recorded by inode -- the rename keeps it, so the tmp
    that was synced can be matched to the final name it became.
    """
    events = []
    real_fsync, real_replace = os.fsync, Path.replace

    def fsync(fd):
        info = os.fstat(fd)
        kind = "fsync_dir" if stat.S_ISDIR(info.st_mode) else "fsync_file"
        events.append((kind, info.st_ino))
        real_fsync(fd)

    def replace(self, target):
        events.append(("rename", str(target)))
        return real_replace(self, target)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(Path, "replace", replace)
    return events


def _litter(*roots):
    return [p for root in roots for p in Path(root).glob("*.tmp.*")]


class TestBatchWriterOrdering:
    def test_every_tmp_is_durable_before_the_first_rename(
        self, tmp_path, recorded
    ):
        left, right = tmp_path / "left", tmp_path / "right"
        left.mkdir()
        right.mkdir()
        targets = [
            (left if i % 2 else right) / f"entry-{i}.json" for i in range(6)
        ]
        _fsio.atomic_write_json_many([(p, {"i": i}) for i, p in enumerate(targets)])

        kinds = [kind for kind, _ in recorded]
        first_rename = kinds.index("rename")
        last_rename = len(kinds) - 1 - kinds[::-1].index("rename")
        # write phase: one fsync per tmp, all before anything is renamed ...
        synced = [ino for kind, ino in recorded[:first_rename]]
        assert kinds[:first_rename] == ["fsync_file"] * len(targets)
        assert sorted(synced) == sorted(p.stat().st_ino for p in targets)
        # ... rename phase: every entry, nothing else ...
        assert [t for kind, t in recorded if kind == "rename"] == [
            str(p) for p in targets
        ]
        assert kinds[first_rename : last_rename + 1] == ["rename"] * len(targets)
        # ... barrier: exactly one fsync per distinct parent, after the last.
        assert sorted(ino for _kind, ino in recorded[last_rename + 1 :]) == sorted(
            [left.stat().st_ino, right.stat().st_ino]
        )
        assert kinds[last_rename + 1 :] == ["fsync_dir"] * 2
        assert _litter(left, right) == []

    def test_one_file_is_the_group_of_one(self, tmp_path, recorded):
        _fsio.atomic_write_json(tmp_path / "one.json", {"a": 1})
        assert [kind for kind, _ in recorded] == [
            "fsync_file", "rename", "fsync_dir",
        ]
        assert _fsio.read_json(tmp_path / "one.json") == {"a": 1}

    def test_empty_group_touches_nothing(self, tmp_path, recorded):
        _fsio.atomic_write_json_many([])
        assert ResultCache(tmp_path).put_many([]) == []
        assert recorded == []

    def test_not_durable_skips_every_fsync(self, tmp_path, recorded):
        _fsio.atomic_write_json_many(
            [(tmp_path / f"{i}.json", {"i": i}) for i in range(3)],
            durable=False,
        )
        assert [kind for kind, _ in recorded] == ["rename"] * 3

    def test_duplicate_targets_in_one_group_commit_cleanly(self, tmp_path):
        # A grid may name the same cell twice; last write wins, no litter.
        cache = ResultCache(tmp_path)
        spec = _specs(1)[0]
        cache.put_many([(spec, {"value": 0}), (spec, {"value": 0})])
        assert cache.get(spec) == {"value": 0}
        assert _litter(tmp_path) == []


class TestBatchWriterCrashConsistency:
    N, K = 6, 3  # group size; the (0-based) entry that goes wrong

    def test_nan_in_kth_payload_renames_nothing(self, tmp_path, recorded):
        targets = [tmp_path / f"entry-{i}.json" for i in range(self.N)]
        payloads = [{"i": float(i)} for i in range(self.N)]
        payloads[self.K]["i"] = float("nan")
        with pytest.raises(ValueError):
            _fsio.atomic_write_json_many(list(zip(targets, payloads)))
        assert "rename" not in [kind for kind, _ in recorded]
        assert list(tmp_path.iterdir()) == []

    def test_cache_names_the_cell_whose_result_is_not_strict_json(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path)
        items = _items(self.N)
        bad_spec = items[self.K][0]
        items[self.K] = (bad_spec, {"value": float("nan")})
        with pytest.raises(ValueError) as excinfo:
            cache.put_many(items)
        message = str(excinfo.value)
        assert "NaN" in message
        assert bad_spec.scenario in message and bad_spec.spec_hash() in message
        assert list(tmp_path.iterdir()) == []

    def test_hook_failure_at_kth_rename_keeps_earlier_entries_whole(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        items = _items(self.N)
        doomed = cache.entry_path(items[self.K][0]).name

        def hook(path):
            if path.name == doomed:
                raise faults.WorkerKilled(f"killed renaming {path.name}")

        monkeypatch.setattr(faults, "on_atomic_write", hook)
        with pytest.raises(faults.WorkerKilled):
            cache.put_many(items)
        for spec, result in items[: self.K]:
            assert verify_entry(_fsio.read_json(cache.entry_path(spec))) is None
            assert cache.get(spec) == result
        for spec, _result in items[self.K :]:
            assert not cache.entry_path(spec).exists()
        assert _litter(tmp_path) == []

    def test_delayed_rename_plan_sees_every_entry_of_a_batch(
        self, tmp_path, recorded
    ):
        cache = ResultCache(tmp_path / "cache")
        items = _items(self.N)
        plan = faults.FaultPlan(
            seed=5,
            rates={"delayed_rename": 1.0},
            delay_seconds=0.0,
            log_dir=str(tmp_path / "fired"),
        )
        faults.install(plan)
        try:
            paths = cache.put_many(items)
        finally:
            faults.uninstall()
        fired = [
            _fsio.read_json(p) for p in sorted((tmp_path / "fired").glob("*.json"))
        ]
        assert {record["site"] for record in fired} == {"delayed_rename"}
        assert sorted(record["key"] for record in fired) == sorted(
            p.name for p in paths
        )
        # the hook sits in the rename phase: after every tmp fsync
        kinds = [kind for kind, _ in recorded]
        assert kinds[: self.N] == ["fsync_file"] * self.N

    def test_kill_between_barrier_and_renames_leaves_only_tmp_litter(
        self, tmp_path
    ):
        """A hard death (``os._exit``) once every tmp is durable and none
        is renamed: the cache holds N ``*.tmp.*`` files and no entry, which
        is a clean miss for every cell; one ``fsck --repair`` pass clears
        the litter."""
        queue_dir = tmp_path / "queue"
        cache_dir = queue_dir / "results"
        script = textwrap.dedent(
            f"""
            import os
            from repro.scenarios import ResultCache, ScenarioSpec, faults
            faults.on_atomic_write = lambda path: os._exit(9)
            ResultCache({str(cache_dir)!r}).put_many([
                (ScenarioSpec("group_commit_probe", seed=i), {{"value": i}})
                for i in range({self.N})
            ])
            """
        )
        killed = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=120,
        )
        assert killed.returncode == 9
        assert len(_litter(cache_dir)) == self.N
        assert list(cache_dir.glob("*.json")) == []
        cache = ResultCache(cache_dir)
        assert all(cache.get(spec) is None for spec in _specs(self.N))

        findings = audit(queue_dir, cache_dir=cache_dir, repair=True)
        assert [f.kind for f in findings] == ["stale_tmp"] * self.N
        assert _litter(cache_dir) == []
        assert audit(queue_dir, cache_dir=cache_dir) == []


# ------------------------------------------------------------- structure


def _calls(path, names):
    """Line numbers of ``<anything>.<name>(...)`` calls in ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in names
    ]


def test_cache_is_written_from_exactly_two_places():
    writers = {
        path.name: len(_calls(path, {"put", "put_many"}))
        for path in sorted(SCENARIOS.glob("*.py"))
        if path.name != "cache.py"  # put() is defined as put_many([...])
    }
    assert {name: n for name, n in writers.items() if n} == {
        "executors.py": 1,  # LocalExecutor's group commit
        "worker.py": 1,  # the leased cell's commit, a group of one
    }
    # the one-element forms call the batch forms, not a second writer
    assert len(_calls(SCENARIOS / "cache.py", {"put_many"})) == 1
    assert len(_calls(SCENARIOS / "cache.py", {"put"})) == 0
    # one serialization per entry: a single json.dumps, written once
    assert len(_calls(SCENARIOS / "_fsio.py", {"dump", "dumps"})) == 1
    assert len(_calls(SCENARIOS / "_fsio.py", {"write"})) == 1
    assert len(_calls(SCENARIOS / "_fsio.py", {"replace"})) == 1


def test_runner_side_commit_is_gone():
    for path in sorted(SCENARIOS.glob("*.py")):
        assert "already_cached" not in path.read_text(), path.name
    sweep = ast.parse((SCENARIOS / "sweep.py").read_text())
    assert not [
        node.name
        for node in ast.walk(sweep)
        if isinstance(node, ast.FunctionDef) and node.name == "_finish"
    ]
    assert _calls(SCENARIOS / "sweep.py", {"put", "put_many"}) == []


# ------------------------------------------------------------------ price


BASE = grid_spec(duration=2.0)
GRID = {
    "topology.rtt": [0.06, 0.14],
    "loss.rate": [0.0, 0.04],
    "seed": list(range(8)),
}


def test_vector_sweep_pays_cells_plus_groups_fsyncs(tmp_path, recorded):
    vector_dir, serial_dir = tmp_path / "vector", tmp_path / "serial"
    vector = SweepRunner(
        BASE, GRID, executor="vector", cache_dir=str(vector_dir)
    )
    cells = len(vector.cells())
    groups = len({lockstep_group(cell.spec) for cell in vector.cells()})
    assert cells == 32 and 1 <= groups < cells

    vector.run()
    vector_kinds = [kind for kind, _ in recorded]
    del recorded[:]
    SweepRunner(
        BASE, GRID, executor="serial", cache_dir=str(serial_dir)
    ).run()
    serial_kinds = [kind for kind, _ in recorded]

    # one fsync per entry plus one directory barrier per executed group ...
    assert vector_kinds.count("fsync_file") == cells
    assert vector_kinds.count("fsync_dir") == groups
    # ... where serial, the group of one, still pays two per cell -- for
    # the same bytes.
    assert serial_kinds.count("fsync_file") == cells
    assert serial_kinds.count("fsync_dir") == cells
    vector_files = {p.name: p.read_bytes() for p in vector_dir.glob("*.json")}
    serial_files = {p.name: p.read_bytes() for p in serial_dir.glob("*.json")}
    assert len(vector_files) == cells
    assert vector_files == serial_files


def test_failed_member_does_not_cost_its_group_the_commit(tmp_path, monkeypatch):
    """A lockstep batch that splits and loses one cell still commits the
    others before ``SweepCellError`` leaves: ``exc.partial`` keeps meaning
    "these cells are in the cache"."""
    from repro.scenarios import executors

    grid = {"loss.rate": [0.04], "seed": [1, 2, 3, 4]}
    poison = 3

    def no_lockstep(specs):
        raise RuntimeError("lockstep refused")

    def scalar(spec, _real=executors.run_scenario):
        if spec.seed == poison:
            raise RuntimeError(f"cell seed={spec.seed} exploded")
        return _real(spec)

    monkeypatch.setattr(executors, "run_vector_batch", no_lockstep)
    monkeypatch.setattr(executors, "run_scenario", scalar)
    runner = SweepRunner(
        BASE, grid, executor="vector", cache_dir=str(tmp_path / "c")
    )
    with pytest.warns(executors.VectorFallbackWarning):
        with pytest.raises(executors.SweepCellError) as excinfo:
            runner.run()
    assert excinfo.value.overrides["seed"] == poison
    finished = [c for c in excinfo.value.partial.cells if c.result is not None]
    assert [c.overrides["seed"] for c in finished] == [1, 2]
    cache = ResultCache(tmp_path / "c")
    assert all(cache.get(c.spec) == c.result for c in finished)
    # the mate *after* the failed cell was committed too: a re-run finds it
    committed = [json.loads(p.read_text()) for p in cache.root.glob("*.json")]
    assert {e["spec"]["seed"] for e in committed} == {1, 2, 4}


def test_worker_commits_its_claimed_batch_before_any_done_marker(
    tmp_path, recorded, monkeypatch
):
    """``process_one`` leases one cell (the queue transport does not batch,
    so the "batch" is a group of one): one ``ResultCache`` for its cache
    directory, its entry renamed -- behind one directory barrier -- and
    only then the ``done/`` marker."""
    from repro.scenarios import FileQueue, worker

    built = []
    real_init = ResultCache.__init__

    def counting_init(self, root):
        built.append(str(root))
        real_init(self, root)

    monkeypatch.setattr(ResultCache, "__init__", counting_init)
    fq = FileQueue(tmp_path / "queue").ensure()
    cache_dir = tmp_path / "cache"
    specs = [BASE.override({"seed": seed}) for seed in (1, 2, 3, 4)]
    for spec in specs:
        fq.enqueue({
            "key": f"{spec.scenario}-{spec.spec_hash()}",
            "module": "repro.scenarios.vector",
            "spec": spec.to_dict(),
            "cache_dir": str(cache_dir),
            "max_attempts": 1,
        })
    del recorded[:]
    assert worker.process_one(fq, worker_id="w", verbose=False)

    assert built == [str(cache_dir)]
    renames = [Path(t) for kind, t in recorded if kind == "rename"]
    into_cache = [i for i, t in enumerate(renames) if t.parent == cache_dir]
    into_done = [i for i, t in enumerate(renames) if t.parent == fq.done]
    assert len(into_cache) == len(into_done) == 1  # one lease, one cell
    assert into_cache < into_done
    barriers = [ino for kind, ino in recorded if kind == "fsync_dir"]
    assert barriers.count(cache_dir.stat().st_ino) == 1
    assert len(list(fq.tasks.iterdir())) == len(specs) - 1  # mates untouched
    assert len(ResultCache(cache_dir)) == 1
