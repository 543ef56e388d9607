"""Unified scenario subsystem.

Everything needed to describe, build, and sweep the paper's simulation
scenarios:

* :mod:`~repro.scenarios.spec` -- the declarative
  :class:`~repro.scenarios.spec.ScenarioSpec` (topology, flow mix, queue,
  loss model, seed, duration), stable spec hashing, and the
  ``@register_scenario`` registry.
* :mod:`~repro.scenarios.builders` -- :class:`Testbed` /
  :class:`DumbbellTestbed`, the one place a packet figure's simulator, RNG
  streams, dumbbell and monitors are made and run; the dumbbell /
  lossy-path builders every figure module shares, built on them; and the
  registered declarative entry points (``mixed_dumbbell``,
  ``tfrc_lossy_path``).
* :mod:`~repro.scenarios.sweep` -- :class:`~repro.scenarios.sweep.SweepRunner`:
  parameter-grid expansion, deterministic per-cell seeding, progress
  reporting.
* :mod:`~repro.scenarios.executors` -- ``execute_cells``, the one place a
  sweep cell runs, and the two transports behind ``SweepRunner.run``: the
  local executor (in-process or process pool; scalar or lockstep batches)
  and the multi-host file-queue coordinator (dead-worker reclaim, retry
  budget, poison-cell quarantine) over :mod:`~repro.scenarios.filequeue`
  -- the queue directory's on-disk protocol (atomic-rename leases,
  heartbeats, the retry policy) -- drained one cell per lease by
  ``tfrc-sweep-worker`` processes (:mod:`~repro.scenarios.worker`).
* :mod:`~repro.scenarios.cache` -- the on-disk JSON result cache keyed by
  spec hash, with checksummed durable entries and corrupt-entry
  quarantine (also the result transport for the file-queue executor).
* :mod:`~repro.scenarios.vector` -- the ``tfrc_equation_grid`` scenario and
  the lockstep batching strategy: which cells may advance together in one
  numpy batch (:mod:`repro.sim.vector_kernel`), the rest running scalar.
* :mod:`~repro.scenarios.faults` -- deterministic fault injection
  (:class:`~repro.scenarios.faults.FaultPlan`) for chaos-testing the
  sweep fabric.
* :mod:`~repro.scenarios.fsck` -- the ``tfrc-sweep-fsck`` audit/repair
  tool for queue directories and caches.
"""

from repro.scenarios.builders import (
    DumbbellTestbed,
    PathProfile,
    SingleTfrcResult,
    Testbed,
    build_mixed_dumbbell,
    lossless_phase,
    loss_model_from_spec,
    periodic_phase,
    run_internet_path,
    run_mixed_dumbbell,
    run_single_tfrc_on_lossy_path,
    run_tfrc_probe_path,
    steady_state_window,
)
from repro.scenarios.cache import ResultCache
from repro.scenarios.faults import FaultInjectionError, FaultPlan, WorkerKilled
from repro.scenarios.fsck import audit as fsck_audit
from repro.scenarios.executors import (
    EXECUTOR_NAMES,
    CellCompletion,
    ExecutorArg,
    FileQueueExecutor,
    LocalExecutor,
    SweepCellError,
    SweepExecutor,
    SweepPlan,
    available_cpus,
    resolve_executor,
)
from repro.scenarios.filequeue import FileQueue
from repro.scenarios.spec import (
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
)
from repro.scenarios.sweep import (
    SweepCell,
    SweepResult,
    SweepRunner,
    print_progress,
    run_single_cell,
)
from repro.scenarios.vector import (
    EQUATION_GRID_SCENARIO,
    VectorFallbackWarning,
    batch_key,
    run_vector_batch,
    spec_to_cell_params,
    vector_capability,
)

__all__ = [
    "EQUATION_GRID_SCENARIO",
    "EXECUTOR_NAMES",
    "CellCompletion",
    "DumbbellTestbed",
    "ExecutorArg",
    "FaultInjectionError",
    "FaultPlan",
    "FileQueue",
    "FileQueueExecutor",
    "WorkerKilled",
    "fsck_audit",
    "LocalExecutor",
    "PathProfile",
    "ResultCache",
    "ScenarioSpec",
    "SingleTfrcResult",
    "SweepCell",
    "SweepCellError",
    "SweepExecutor",
    "SweepPlan",
    "SweepResult",
    "SweepRunner",
    "Testbed",
    "VectorFallbackWarning",
    "available_cpus",
    "batch_key",
    "build_mixed_dumbbell",
    "get_scenario",
    "resolve_executor",
    "list_scenarios",
    "loss_model_from_spec",
    "lossless_phase",
    "periodic_phase",
    "print_progress",
    "register_scenario",
    "run_internet_path",
    "run_mixed_dumbbell",
    "run_scenario",
    "run_single_cell",
    "run_single_tfrc_on_lossy_path",
    "run_tfrc_probe_path",
    "run_vector_batch",
    "spec_to_cell_params",
    "steady_state_window",
    "vector_capability",
]
