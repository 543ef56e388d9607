"""The ``vector`` sweep executor: batching, fallback, cache identity.

What the executor promises on top of the kernel's bit-identity
(``tests/test_vector_kernel.py``):

* a sweep run with ``executor="vector"`` writes **byte-identical**
  ``ResultCache`` files to a serial run of the same grid -- cache entries
  are executor-agnostic, so crash-resume and the file-queue fabric compose
  with the vector path for free;
* unsupported cells fall back to scalar execution announced by exactly one
  ``VectorFallbackWarning``, never an error;
* a ``tfrc-sweep-worker`` drains the same grid from a queue one cell per
  lease (the queue transport does not batch) with the same cache bytes.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.scenarios import (
    EQUATION_GRID_SCENARIO,
    LocalExecutor,
    ResultCache,
    ScenarioSpec,
    SweepRunner,
    VectorFallbackWarning,
    batch_key,
    resolve_executor,
    run_scenario,
    run_vector_batch,
    spec_to_cell_params,
    vector_capability,
)
from repro.scenarios.executors import EXECUTOR_NAMES, FileQueue
from repro.scenarios.worker import drain
from repro.sim.vector_kernel import run_cell_scalar


def grid_spec(duration=3.0, **extra):
    return ScenarioSpec(
        EQUATION_GRID_SCENARIO,
        topology={"rtt": 0.1, "bandwidth_bps": 1.5e6, "packet_size": 1000},
        queue={"type": "red", "buffer_packets": 25},
        loss={"rate": 0.02},
        duration=duration,
        extra=extra,
    )


GRID = {
    "topology.rtt": [0.06, 0.14],
    "loss.rate": [0.0, 0.04],
    "seed": [1, 2, 3],
}


def run_grid(tmp_path, executor, base=None, grid=None, label=None):
    cache_dir = tmp_path / (label or executor)
    runner = SweepRunner(
        base if base is not None else grid_spec(),
        grid if grid is not None else GRID,
        executor=executor,
        cache_dir=str(cache_dir),
        parallel=2,
        queue_dir=str(tmp_path / "queue-dir"),
    )
    return runner.run(), cache_dir


class TestVectorExecutor:
    def test_registered_name(self):
        assert "vector" in EXECUTOR_NAMES
        # in-process transport, unbounded lockstep batches
        vector = resolve_executor("vector")
        assert (vector.workers, vector.batch_limit) == (0, None)

    def test_cache_files_byte_identical_to_serial(self, tmp_path):
        """The acceptance pin: same grid, same cache bytes, every executor
        name -- plus the corner of the transport x batching plane no name
        reaches (process pool, bounded lockstep batches)."""
        serial, serial_dir = run_grid(tmp_path, "serial")
        names = sorted(p.name for p in serial_dir.iterdir())
        assert len(names) == 12
        others = {name: name for name in EXECUTOR_NAMES if name != "serial"}
        others["pool-lockstep"] = LocalExecutor(workers=2, batch_limit=5)
        for label, executor in others.items():
            sweep, cache_dir = run_grid(tmp_path, executor, label=label)
            assert [c.result for c in sweep.cells] == [
                c.result for c in serial.cells
            ]
            assert names == sorted(
                p.name for p in cache_dir.iterdir() if p.is_file()
            )
            for name in names:
                assert (serial_dir / name).read_bytes() == (
                    cache_dir / name
                ).read_bytes(), f"cache file {name} differs under {label}"

    def test_unsupported_cells_fall_back_with_single_warning(self, tmp_path):
        """A grid mixing batchable and trace cells completes, warns once,
        and still matches serial results cell-for-cell."""
        grid = {"seed": [1, 2], "extra.trace": [False, True]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vector, _ = run_grid(
                tmp_path, "vector", base=grid_spec(), grid=grid
            )
        fallbacks = [w for w in caught
                     if issubclass(w.category, VectorFallbackWarning)]
        assert len(fallbacks) == 1
        assert "2 of 4" in str(fallbacks[0].message)
        assert "extra.trace" in str(fallbacks[0].message)
        serial, _ = run_grid(tmp_path, "serial", base=grid_spec(), grid=grid)
        assert [c.result for c in vector.cells] == [
            c.result for c in serial.cells
        ]
        traced = [c.result for c in vector.cells
                  if c.spec.extra.get("trace")]
        assert traced and all("rate_trace" in r for r in traced)

    def test_fully_supported_grid_does_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", VectorFallbackWarning)
            run_grid(tmp_path, "vector")


class TestCapabilityAndBatching:
    def test_supported_spec(self):
        assert vector_capability(grid_spec()) is None

    def test_foreign_scenario_rejected_with_reason(self):
        spec = ScenarioSpec("mixed_dumbbell", duration=1.0)
        reason = vector_capability(spec)
        assert reason is not None and "mixed_dumbbell" in reason

    def test_trace_rejected_with_reason(self):
        reason = vector_capability(grid_spec(trace=True))
        assert reason is not None and "trace" in reason

    def test_batch_key_blanks_only_batch_axes(self):
        base = grid_spec()
        assert batch_key(base) == batch_key(
            base.override({"topology.rtt": 0.2, "loss.rate": 0.1, "seed": 99})
        )
        assert batch_key(base) != batch_key(base.override({"duration": 9.0}))
        assert batch_key(base) != batch_key(
            base.override({"queue.type": "droptail"})
        )

    def test_run_vector_batch_singleton_matches_scalar(self):
        spec = grid_spec()
        assert run_vector_batch([spec]) == [
            run_cell_scalar(spec_to_cell_params(spec))
        ]

    def test_registered_scenario_runs_scalar(self):
        spec = grid_spec()
        assert run_scenario(spec) == run_cell_scalar(
            spec_to_cell_params(spec)
        )


class TestWorkerVectorBatch:
    def _enqueue_grid(self, queue_root, cache_dir):
        fq = FileQueue(queue_root).ensure()
        specs = SweepRunner(grid_spec(), GRID).cells()
        for cell in specs:
            fq.enqueue({
                "key": f"{cell.spec.scenario}-{cell.spec.spec_hash()}",
                "module": "repro.scenarios.vector",
                "spec": cell.spec.to_dict(),
                "cache_dir": str(cache_dir),
                "max_attempts": 1,
            })
        return fq, [cell.spec for cell in specs]

    def test_batched_drain_matches_serial_cache(self, tmp_path):
        serial, serial_dir = run_grid(tmp_path, "serial")
        fq, specs = self._enqueue_grid(
            tmp_path / "queue", tmp_path / "worker-cache"
        )
        executed = drain(
            str(tmp_path / "queue"),
            worker_id="test-worker",
            once=True,
            verbose=False,
        )
        # One lease per cell: the queue transport does not batch.
        assert executed == len(specs)
        cache = ResultCache(tmp_path / "worker-cache")
        for spec in specs:
            assert cache.get(spec) is not None
            done = fq.done_path(f"{spec.scenario}-{spec.spec_hash()}")
            assert done.exists()
            assert json.loads(done.read_text())["worker"] == "test-worker"
        for path in serial_dir.iterdir():
            assert path.read_bytes() == (
                tmp_path / "worker-cache" / path.name
            ).read_bytes(), f"worker cache file {path.name} differs"
        assert not list(fq.tasks.iterdir())
        assert not list(fq.claims.iterdir())

    def test_unbatched_drain_same_cache(self, tmp_path):
        """A drain writes the bytes a serial sweep writes."""
        serial, serial_dir = run_grid(tmp_path, "serial")
        fq, specs = self._enqueue_grid(
            tmp_path / "queue", tmp_path / "worker-cache"
        )
        executed = drain(
            str(tmp_path / "queue"),
            worker_id="test-worker",
            once=True,
            verbose=False,
        )
        assert executed == len(specs)
        for path in serial_dir.iterdir():
            assert path.read_bytes() == (
                tmp_path / "worker-cache" / path.name
            ).read_bytes()


class TestCliThreading:
    def test_runner_accepts_vector_executor(self, capsys):
        """`--executor vector` threads through the experiments CLI; a
        non-grid figure sweep completes on the scalar fallback path."""
        from repro.experiments import runner

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", VectorFallbackWarning)
            assert runner.main(
                ["fig05", "--quick", "--executor", "vector"]
            ) == 0
        capsys.readouterr()

    def test_worker_rejects_bad_vector_batch(self, tmp_path, capsys):
        """The retired flag is no longer a flag: exit 2, queue untouched."""
        from repro.scenarios.worker import main

        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "q"), "--once", "--vector-batch", "4"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --vector-batch" in capsys.readouterr().err
        assert not (tmp_path / "q").exists()
