"""Parameter-grid sweeps over registered scenarios.

The paper's evaluation is a grid of scenario sweeps (link rates x flow
counts x queue disciplines x loss models).  :class:`SweepRunner` expands a
base :class:`~repro.scenarios.spec.ScenarioSpec` against a grid of
dotted-path overrides into cells, then executes the cells on a pluggable
:class:`~repro.scenarios.executors.SweepExecutor` -- serially, on a local
process pool, or across any number of (possibly multi-host) worker
processes coordinated through a shared queue directory -- with

* **deterministic seeding** -- cells either share the base seed
  (``seed_mode="shared"``, the paper's methodology for comparable cells) or
  derive a stable per-cell seed from the base seed plus the cell's
  overrides (``seed_mode="derived"``, for replication studies).  Either
  way, every executor produces byte-identical results for the same sweep:
  each cell's spec (including its seed) is fixed at expansion time.
* **progress reporting** -- an optional callback fired after every cell.
* **result caching** -- an optional on-disk JSON cache keyed by spec hash,
  so re-running a sweep only simulates cells whose spec changed.  The
  runner only *reads* it: executors commit what they execute (one group
  commit per executed group) and deliver completions already in the cache.
  The file-queue executor requires the cache: workers deliver results
  through it, and the coordinator assembles the sweep purely from cache.
* **failure context** -- a failing cell raises
  :class:`~repro.scenarios.executors.SweepCellError` naming the cell and
  its overrides, with the partial :class:`SweepResult` (every cell that did
  finish, cache hits included) attached as ``.partial``.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.scenarios.cache import ResultCache, entry_key
from repro.scenarios.executors import (
    EXECUTOR_NAMES,
    ExecutorArg,
    FileQueueExecutor,
    SweepCellError,
    SweepPlan,
    resolve_executor,
)
from repro.scenarios.spec import (
    JsonDict,
    ScenarioSpec,
    get_scenario,
    split_override_path,
)

#: progress callback: (cells done, cells total, the cell just finished).  If
#: it has a ``finish`` attribute, ``SweepRunner.run`` calls that once with the
#: finished :class:`SweepResult`.
ProgressFn = Callable[[int, int, "SweepCell"], None]


@dataclass
class SweepCell:
    """One grid point: its overrides, expanded spec, and (later) result."""

    index: int
    overrides: Dict[str, Any]
    spec: ScenarioSpec
    #: ``<scenario>-<spec_hash>`` (:func:`~repro.scenarios.cache.entry_key`),
    #: computed once at expansion: the cell's cache entry and queue key.
    key: str
    result: Optional[JsonDict] = None
    from_cache: bool = False
    elapsed_seconds: float = 0.0
    #: the cell exhausted its retry budget and was dead-lettered (queue
    #: executor with ``on_poison="quarantine"``); ``result`` is None and
    #: ``failure`` summarizes the last recorded error.
    quarantined: bool = False
    failure: str = ""
    #: failed attempts before the one that finished (the file queue's retry
    #: budget; 0 under the local executor); ``max_attempts`` if quarantined.
    attempts: int = 0
    #: why: the ``kind`` of each of those attempts' failure records.
    failure_kinds: List[str] = field(default_factory=list)

    def describe(self) -> str:
        """``scenario[path=value, ...]``, each value cut to 48 characters;
        if one is cut, ``#<spec_hash>`` follows, so that cells whose values
        differ only past the cut read apart."""
        texts = {k: str(v) for k, v in self.overrides.items()}
        cut = any(len(text) > 48 for text in texts.values())
        inner = ", ".join(
            f"{k}={text if len(text) <= 48 else text[:45] + '...'}"
            for k, text in texts.items()
        )
        name = f"{self.spec.scenario}[{inner}]" if inner else self.spec.scenario
        return f"{name}#{self.key.rsplit('-', 1)[1]}" if cut else name


@dataclass
class SweepResult:
    """All cells of a sweep, in grid-expansion order."""

    cells: List[SweepCell] = field(default_factory=list)
    #: wall-clock of the ``SweepRunner.run()`` call that produced this --
    #: diagnostics only; no result or cache byte depends on it.
    wall_seconds: float = 0.0
    #: what executed the cache-missing cells (``"serial"``, ``"pool x2"``,
    #: ``"queue x2"``, ``"vector"``); empty when every cell was cached.
    executor: str = ""
    #: wall-clock from ``run()`` entry to the first executed cell's
    #: completion (executor start-up plus one cell; diagnostics only, like
    #: ``wall_seconds``); None when every cell was a cache hit.
    first_result_seconds: Optional[float] = None
    #: cache entries this run found corrupt, quarantined and re-ran (the
    #: executed cells include them).
    corrupt_entries: int = 0

    def results(self) -> List[JsonDict]:
        return [cell.result for cell in self.cells if cell.result is not None]

    @property
    def cache_hits(self) -> int:
        return sum(1 for cell in self.cells if cell.from_cache)

    @property
    def quarantined(self) -> List[SweepCell]:
        """Poison cells dead-lettered instead of finishing (no result)."""
        return [cell for cell in self.cells if cell.quarantined]

    def complete_cells(self) -> List[SweepCell]:
        """The cells, for a reducer that needs every grid point's result.

        ``cells`` / ``results()`` tolerate holes (a quarantined cell has no
        result); a figure reduced over the whole grid cannot, so this raises
        :class:`~repro.scenarios.executors.SweepCellError` naming every cell
        without a result, with this sweep as ``.partial``.
        """
        missing = [cell for cell in self.cells if cell.result is None]
        if missing:
            named = "; ".join(
                f"{cell.describe()} ({cell.failure or 'no result'})"
                for cell in missing
            )
            raise SweepCellError(
                f"{len(missing)} of {len(self.cells)} sweep cells have no "
                f"result: {named}",
                cell=missing[0],
                overrides=missing[0].overrides,
                partial=self,
            )
        return self.cells


class SweepRunner:
    """Expand a parameter grid over a base spec and execute every cell."""

    def __init__(
        self,
        base: ScenarioSpec,
        grid: Optional[Mapping[str, Sequence[Any]]] = None,
        *,
        parallel: int = 1,
        cache_dir: Optional[str] = None,
        progress: Optional[ProgressFn] = None,
        seed_mode: str = "shared",
        executor: Optional[ExecutorArg] = None,
        queue_dir: Optional[str] = None,
    ) -> None:
        wants_queue = executor == "queue" or isinstance(
            executor, FileQueueExecutor
        )
        if parallel < (0 if wants_queue else 1):
            raise ValueError(
                "parallel must be >= 1 (>= 0 with the queue executor, "
                "where 0 means 'externally started workers only')"
            )
        if seed_mode not in ("shared", "derived"):
            raise ValueError("seed_mode must be 'shared' or 'derived'")
        if isinstance(executor, str) and executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"unknown executor {executor!r}; choose one of "
                f"{EXECUTOR_NAMES}"
            )
        if executor == "queue" and queue_dir is None:
            raise ValueError("executor 'queue' requires queue_dir")
        self.base = base
        self.grid = self._checked_grid(grid or {})
        self.parallel = parallel
        self.executor = executor
        self.queue_dir = queue_dir
        if cache_dir is None and wants_queue:
            # The queue executor moves results through the cache; default
            # it into the queue directory so multi-host workers find it.
            root = (
                executor.queue_dir
                if isinstance(executor, FileQueueExecutor)
                else queue_dir
            )
            cache_dir = os.path.join(str(root), "results")
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.progress = progress
        self.seed_mode = seed_mode

    # ------------------------------------------------------------ expansion

    @staticmethod
    def _checked_grid(grid: Mapping[Any, Any]) -> Dict[Any, List[Any]]:
        """``grid`` with every axis's values listed -- or a ``ValueError``
        naming the axis, here, before a cell runs or a directory exists."""
        checked: Dict[Any, List[Any]] = {}
        for axis, values in grid.items():
            for path in axis if isinstance(axis, tuple) else (axis,):
                split_override_path(path)
            if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
                raise ValueError(
                    f"grid axis {axis!r} needs a sequence of values, "
                    f"got {values!r}"
                )
            checked[axis] = list(values)
            if not checked[axis]:
                raise ValueError(f"grid axis {axis!r} has no values")
            if isinstance(axis, tuple):
                for value in checked[axis]:
                    if not isinstance(value, (tuple, list)) or len(value) != len(axis):
                        raise ValueError(
                            f"zipped axis {axis!r} expects values of length "
                            f"{len(axis)}, got {value!r}"
                        )
        return checked

    def cells(self) -> List[SweepCell]:
        """The grid's cells in deterministic expansion order.

        Axes iterate in insertion order, the last axis fastest (standard
        odometer order), so printed sweep output groups naturally.

        A *zipped* axis -- a tuple of override paths whose values are
        same-length tuples, e.g. ``{("topology", "seed"): [(profile_a, 7),
        (profile_b, 8)]}`` -- varies several paths together as one axis
        instead of taking their product.
        """
        axes = list(self.grid.items())
        combos = itertools.product(*(values for _, values in axes))
        expanded: List[SweepCell] = []
        for index, combo in enumerate(combos):
            overrides: Dict[str, Any] = {}
            for (key, _), value in zip(axes, combo):
                if isinstance(key, tuple):
                    overrides.update(zip(key, value))
                else:
                    overrides[key] = value
            spec = self.base.override(overrides)
            if self.seed_mode == "derived" and "seed" not in overrides:
                spec = spec.override({"seed": self.base.derive_seed(overrides)})
            expanded.append(
                SweepCell(
                    index=index,
                    overrides=overrides,
                    spec=spec,
                    key=entry_key(spec),
                )
            )
        return expanded

    # ------------------------------------------------------------ execution

    def run(self) -> SweepResult:
        """Execute all cells on the configured executor and return them.

        Cell results are independent of executor choice, execution order,
        and worker count: each cell's spec (including its seed) is fixed at
        expansion time.  On a cell failure the raised
        :class:`~repro.scenarios.executors.SweepCellError` carries the
        partial :class:`SweepResult` as ``.partial``.
        """
        started = time.perf_counter()
        get_scenario(self.base.scenario)  # fail fast on unknown scenarios
        result = SweepResult(cells=self.cells())
        total = len(result.cells)
        done = 0
        pending: List[SweepCell] = []
        # `is not None`, not truthiness: ResultCache.__len__ globs the
        # whole cache directory.
        cache = self.cache
        quarantined = cache.quarantined_on_read if cache is not None else 0
        for cell in result.cells:
            cached = cache.get(cell.spec, cell.key) if cache is not None else None
            if cached is not None:
                cell.result = cached
                cell.from_cache = True
                done += 1
                if self.progress:
                    self.progress(done, total, cell)
            else:
                pending.append(cell)
        if cache is not None:
            result.corrupt_entries = cache.quarantined_on_read - quarantined

        if pending:
            executor = resolve_executor(
                self.executor,
                parallel=self.parallel,
                queue_dir=self.queue_dir,
                pending=len(pending),
            )
            result.executor = executor.describe(len(pending))
            plan = SweepPlan(
                cells=pending,
                module_name=get_scenario(self.base.scenario).__module__,
                cache=self.cache,
            )
            try:
                for completion in executor.run_cells(plan):
                    if result.first_result_seconds is None:
                        result.first_result_seconds = time.perf_counter() - started
                    cell = completion.cell
                    cell.result = completion.result
                    cell.elapsed_seconds = completion.elapsed_seconds
                    cell.attempts = completion.attempts
                    cell.failure_kinds = completion.failure_kinds
                    if completion.quarantined:
                        cell.quarantined = True
                        cell.failure = completion.failure
                    done += 1
                    if self.progress:
                        self.progress(done, total, cell)
            except SweepCellError as exc:
                # Already-finished cells (cached or executed) stay accessible.
                result.wall_seconds = time.perf_counter() - started
                exc.partial = result
                raise
        result.wall_seconds = time.perf_counter() - started
        finish = getattr(self.progress, "finish", None)
        if finish is not None:
            finish(result)
        return result


def run_single_cell(base: ScenarioSpec, **sweep: object) -> JsonDict:
    """Execute a gridless spec as one sweep cell and return its result.

    The figure modules whose headline run is a single cell still route it
    through :class:`SweepRunner` so the CLI contract (``--cache`` result
    re-use, progress reporting, ``--executor`` selection) applies
    uniformly.  ``sweep`` is :class:`SweepRunner`'s keyword options.
    """
    return SweepRunner(base, **sweep).run().complete_cells()[0].result


def print_progress() -> ProgressFn:
    """A ready-made progress callback: one status line per finished cell,
    and one closing line per sweep saying where its wall-clock went, on
    ``sys.stderr`` as it is when each line is printed."""
    import sys

    def report(done: int, total: int, cell: SweepCell) -> None:
        source = "cache" if cell.from_cache else f"{cell.elapsed_seconds:.1f}s"
        print(
            f"[sweep {done}/{total}] {cell.describe()} ({source})",
            file=sys.stderr,
        )

    def finish(result: SweepResult) -> None:
        total, cached = len(result.cells), result.cache_hits
        wall = result.wall_seconds
        line = (
            f"[sweep] {total} cell{'s' if total != 1 else ''}: "
            f"{cached} cached, {total - cached} run"
        )
        if cached < total:
            cell_time = sum(cell.elapsed_seconds for cell in result.cells)
            line += (
                f" on {result.executor} in {wall:.2f}s, first result "
                f"{result.first_result_seconds:.2f}s (cell time "
                f"{cell_time:.2f}s, {cell_time / max(wall, 1e-9):.1f}x)"
            )
        else:
            line += f" in {wall:.2f}s"
        if result.corrupt_entries:
            line += f", {result.corrupt_entries} corrupt entries re-run"
        retried = sum(1 for cell in result.cells if cell.attempts)
        if retried:
            kinds = Counter(
                kind for cell in result.cells for kind in cell.failure_kinds
            )
            why = ", ".join(f"{kind} {n}" for kind, n in sorted(kinds.items()))
            line += f", {retried} retried ({why})"
        print(line, file=sys.stderr)

    report.finish = finish
    return report
