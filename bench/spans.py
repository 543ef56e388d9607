"""Spans around the calls into each layer, recorded from the benchmark's side.

The traced run wraps the layer boundaries named in :func:`instrument`
with :meth:`SpanRecorder.wrap`; the program itself is not edited.  A span
is ``[name, start, end, parent, key, count]`` -- parent is the index of
the span that was open when it started (-1 at the root), ``key`` the sweep
cell it served where one is known, ``count`` work done inside (events
processed by ``Simulator.run``).  Spans stay in a list until
:func:`write_trace`.  A boundary that no longer exists is listed in
``SpanRecorder.missing`` and the run continues.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

NAME, START, END, PARENT, KEY, COUNT = range(6)


class SpanRecorder:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []
        #: id(spec) -> cell key, filled by the ``SweepRunner.cells`` wrapper.
        self.cell_keys: Dict[int, str] = {}

    # -------------------------------------------------------------- spans

    def open(self, name: str, key: Optional[str] = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, key, 0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][END] = self.clock()

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        key_of: Optional[Callable[..., Optional[str]]] = None,
        count_of: Optional[Callable[..., int]] = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span around every call."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self.open(name, key_of(*args, **kwargs) if key_of else None)
            before = count_of(*args, **kwargs) if count_of else 0
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
                if count_of:
                    self.spans[index][COUNT] = count_of(*args, **kwargs) - before

        return wrapper

    def wrap_generator(
        self, name: str, fn: Callable[..., Iterator[Any]]
    ) -> Callable[..., Iterator[Any]]:
        """A generator function with one span per resumption.

        Time the consumer spends between two ``next()`` calls belongs to
        the consumer, so each resumption is its own span, keyed by the
        cell of the completion it yields.
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = fn(*args, **kwargs)
            while True:
                index = self.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                cell = getattr(item, "cell", None)
                self.spans[index][KEY] = getattr(cell, "key", None)
                yield item

        return wrapper

    # ------------------------------------------------------------ patching

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        original = vars(owner).get(attr, getattr(owner, attr))
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def lookup(self, dotted: str) -> Optional[Tuple[Any, str, Any]]:
        """(owner, attribute, current value) of ``a.b.C.attr``.

        None, with the name added to :attr:`missing`, when it is gone.
        """
        try:
            owner, attr = _resolve_owner(dotted)
            return owner, attr, getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(dotted)
            return None

    def patch_attr(self, dotted: str, span: str, **wrap_kwargs: Any) -> None:
        """Wrap ``module.attr`` or ``module.Class.attr`` in place."""
        found = self.lookup(dotted)
        if found:
            owner, attr, original = found
            self._set(owner, attr, self.wrap(span, original, **wrap_kwargs))

    def patch_function(self, dotted: str, span: str) -> None:
        """Wrap a module-level function wherever ``repro`` has bound it.

        ``from m import f`` copies the binding, so every ``repro`` module
        whose attribute *is* the function gets the wrapper.
        """
        found = self.lookup(dotted)
        if not found:
            return
        original = found[2]
        wrapped = self.wrap(span, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for bound_as, value in list(vars(module).items()):
                if value is original:
                    self._set(module, bound_as, wrapped)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _resolve_owner(dotted: str) -> Tuple[Any, str]:
    """``a.b.C.attr`` -> (object ``a.b.C``, ``"attr"``); imports ``a.b``."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for part in parts[split:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]
    raise ImportError(dotted)


# --------------------------------------------------------- instrumentation


def instrument(rec: SpanRecorder) -> None:
    """Put a span at every layer boundary the benchmark attributes time to."""
    rec.patch_attr("repro.experiments.runner.main", "experiments.runner.main")
    _patch_figures(rec)
    _patch_analysis(rec)
    _patch_sweep(rec)
    _patch_scenarios(rec)
    rec.patch_attr(
        "repro.sim.engine.Simulator.run", "sim.Simulator.run",
        count_of=lambda sim, *a, **k: sim.events_processed,
    )
    rec.patch_function(
        "repro.scenarios.vector.run_vector_batch", "sim.vector_kernel.batch"
    )
    spec_key = lambda cache, spec, *a, **k: rec.cell_keys.get(id(spec))
    rec.patch_attr(
        "repro.scenarios.cache.ResultCache.__len__", "scenarios.cache.len"
    )
    rec.patch_attr(
        "repro.scenarios.cache.ResultCache.get", "scenarios.cache.get",
        key_of=spec_key,
    )
    rec.patch_attr(
        "repro.scenarios.cache.ResultCache.put", "scenarios.cache.put",
        key_of=spec_key,
    )
    rec.patch_function(
        "repro.scenarios._fsio.atomic_write_json", "scenarios.fsio.atomic_write"
    )
    rec._set(os, "fsync", rec.wrap("os.fsync", os.fsync))


def _patch_figures(rec: SpanRecorder) -> None:
    """``figNN.run*`` (and ``internet.run*``): the figure entry points."""
    try:
        package = importlib.import_module("repro.experiments")
    except ImportError:
        rec.missing.append("repro.experiments")
        return
    for info in pkgutil.iter_modules(package.__path__):
        if not (info.name.startswith("fig") or info.name == "internet"):
            continue
        module = importlib.import_module(f"repro.experiments.{info.name}")
        label = info.name.split("_")[0]
        for attr, value in list(vars(module).items()):
            if attr.startswith("run") and callable(value):
                if getattr(value, "__module__", None) == module.__name__:
                    rec._set(
                        module, attr,
                        rec.wrap(f"experiments.{label}.{attr}", value),
                    )


def _patch_analysis(rec: SpanRecorder) -> None:
    try:
        package = importlib.import_module("repro.analysis")
    except ImportError:
        rec.missing.append("repro.analysis")
        return
    for attr in getattr(package, "__all__", ()):
        if callable(getattr(package, attr, None)):
            rec.patch_function(f"repro.analysis.{attr}", f"analysis.{attr}")


def _patch_sweep(rec: SpanRecorder) -> None:
    rec.patch_attr(
        "repro.scenarios.sweep.SweepRunner.run", "scenarios.sweep.run"
    )
    found = rec.lookup("repro.scenarios.sweep.SweepRunner.cells")
    if found:
        owner, attr, expand = found
        timed = rec.wrap("scenarios.sweep.cells", expand)

        @functools.wraps(expand)
        def cells(runner: Any) -> Any:
            expanded = timed(runner)
            for cell in expanded:
                rec.cell_keys[id(cell.spec)] = cell.key
            return expanded

        rec._set(owner, attr, cells)
    # Executors are reached through the resolver SweepRunner.run calls, so
    # no executor class is named here.
    found = rec.lookup("repro.scenarios.sweep.resolve_executor")
    if found:
        owner, attr, resolve = found

        @functools.wraps(resolve)
        def resolve_and_wrap(*args: Any, **kwargs: Any) -> Any:
            executor = resolve(*args, **kwargs)
            executor.run_cells = rec.wrap_generator(
                "scenarios.executors.run_cells", executor.run_cells
            )
            return executor

        rec._set(owner, attr, resolve_and_wrap)


def _patch_scenarios(rec: SpanRecorder) -> None:
    """Every registered scenario function, through the public registry."""
    try:
        spec = importlib.import_module("repro.scenarios.spec")
        names = spec.list_scenarios()
    except (ImportError, AttributeError):
        rec.missing.append("repro.scenarios.spec.list_scenarios")
        return
    for name in names:
        original = spec.get_scenario(name)
        # functools.wraps keeps __module__/__qualname__, which is what
        # makes re-registration under the same name idempotent.
        spec.register_scenario(name)(rec.wrap(f"scenario.{name}", original))
        rec._undo.append(
            lambda name=name, original=original: spec.register_scenario(name)(
                original
            )
        )


# ------------------------------------------------------------- arithmetic


def self_times(spans: List[list]) -> List[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span[START]
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        out.append((span[END] - span[START]) - covered)
    return out


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """name -> calls, total seconds, self seconds, summed count."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(
            span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}
        )
        row["calls"] += 1
        row["total_s"] += span[END] - span[START]
        row["self_s"] += own
        row["count"] += span[COUNT]
    return table


def root_seconds(spans: List[list]) -> float:
    """Seconds covered by root spans: what the trace attributes to names."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def write_trace(path: str, workload: str, spans: List[list], missing: List[str]) -> None:
    payload = {
        "workload": workload,
        "fields": ["name", "start", "end", "parent", "key", "count"],
        "missing": missing,
        "spans": spans,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
