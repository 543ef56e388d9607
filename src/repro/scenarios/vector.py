"""Lockstep batching for sweeps, and the ``tfrc_equation_grid`` scenario.

The batched cell kernel (:mod:`repro.sim.vector_kernel`) advances N
independent equation-grid cells in lockstep, but the sweep layer deals in
:class:`~repro.scenarios.spec.ScenarioSpec` grids.  This module is the
bridge:

* ``tfrc_equation_grid`` -- a registered scenario whose spec fully resolves
  to :class:`~repro.sim.vector_kernel.GridCellParams`; executed scalar
  (:func:`~repro.sim.vector_kernel.run_cell_scalar`) when run like any
  other scenario.
* :func:`vector_capability` -- can this spec join a lockstep batch?
  (``None`` = yes, otherwise a human-readable reason.)
* :func:`lockstep_group` -- the one "may these cells share a lockstep
  batch" predicate; the local executor groups by it (the file queue does
  not batch: a worker leases one cell at a time).
* :func:`run_vector_batch` -- one group as one kernel call.  Its only
  caller is :func:`repro.scenarios.executors.execute_cells`, which also
  owns the split-to-scalar policy for a batch that fails.

Because the batch kernel is bit-identical to the scalar kernel, results
reaching the :class:`~repro.scenarios.cache.ResultCache` are byte-identical
whether or not a sweep batches; ``tests/test_vector_executor.py``
pins this file-for-file.  Each scalar/vector function pair underneath a
batch is fuzzed to bit equality in ``tests/test_twin_congruence.py``,
whose registry must name every ``*_vec`` / ``*_vector`` function in the
tree.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence

from repro.net.redmath import RedParams
from repro.scenarios.spec import JsonDict, ScenarioSpec, register_scenario
from repro.sim.vector_kernel import (
    GridCellParams,
    run_cell_scalar,
    run_cells_vector,
)

#: the scenario name that has a lockstep kernel.
EQUATION_GRID_SCENARIO = "tfrc_equation_grid"


class VectorFallbackWarning(UserWarning):
    """Some sweep cells could not be batched and ran on the scalar path."""


# ----------------------------------------------------------- spec translation


def spec_to_cell_params(spec: ScenarioSpec) -> GridCellParams:
    """Resolve a ``tfrc_equation_grid`` spec into kernel primitives.

    Spec layout (all numeric knobs optional, with the defaults below)::

        topology: {rtt, bandwidth_bps, packet_size}
        queue:    {type: "red"|"droptail", buffer_packets,
                   red: {min_thresh, max_thresh, max_p, weight, gentle}}
        loss:     {rate}
        extra:    {measure_fraction, discounting, trace}
    """
    if spec.scenario != EQUATION_GRID_SCENARIO:
        raise ValueError(
            f"spec names scenario {spec.scenario!r}, "
            f"not {EQUATION_GRID_SCENARIO!r}"
        )
    topo = dict(spec.topology)
    queue = dict(spec.queue)
    extra = dict(spec.extra)
    queue_type = str(queue.get("type", "red"))
    red: Optional[RedParams] = None
    if queue_type == "red":
        red_cfg = dict(queue.get("red", {}))
        red = RedParams(
            min_thresh=float(red_cfg.get("min_thresh", 5.0)),
            max_thresh=float(red_cfg.get("max_thresh", 15.0)),
            max_p=float(red_cfg.get("max_p", 0.1)),
            weight=float(red_cfg.get("weight", 0.002)),
            gentle=bool(red_cfg.get("gentle", True)),
        )
    return GridCellParams(
        rtt=float(topo.get("rtt", 0.1)),
        loss_rate=float(dict(spec.loss).get("rate", 0.0)),
        seed=int(spec.seed),
        duration=float(spec.duration),
        bandwidth_bps=float(topo.get("bandwidth_bps", 1.5e6)),
        packet_size=int(topo.get("packet_size", 1000)),
        queue_type=queue_type,
        buffer_packets=int(queue.get("buffer_packets", 25)),
        red=red,
        measure_fraction=float(extra.get("measure_fraction", 2.0 / 3.0)),
        discounting=bool(extra.get("discounting", True)),
        trace=bool(extra.get("trace", False)),
    )


@register_scenario(EQUATION_GRID_SCENARIO)
def tfrc_equation_grid(spec: ScenarioSpec) -> JsonDict:
    """One equation-grid cell, executed on the scalar reference kernel."""
    return run_cell_scalar(spec_to_cell_params(spec))


# ----------------------------------------------------------------- capability


def vector_capability(spec: ScenarioSpec) -> Optional[str]:
    """``None`` when ``spec`` can join a lockstep batch, else the reason.

    The reason string is surfaced verbatim in the (single)
    :class:`VectorFallbackWarning`, so keep it user-readable.
    """
    if spec.scenario != EQUATION_GRID_SCENARIO:
        return (
            f"scenario {spec.scenario!r} has no vector kernel "
            f"(only {EQUATION_GRID_SCENARIO!r} does)"
        )
    if dict(spec.extra).get("trace"):
        return "rate tracing (extra.trace) requires the scalar kernel"
    try:
        spec_to_cell_params(spec)
    except (TypeError, ValueError) as exc:
        return f"spec does not resolve to grid-cell params: {exc}"
    return None


def batch_key(spec: ScenarioSpec) -> str:
    """Grouping key: the spec with the batch axes blanked out.

    Cells sharing a key differ only in ``topology.rtt``, ``loss.rate``
    and ``seed`` -- exactly what
    :func:`repro.sim.vector_kernel.batchable` permits within one batch.
    """
    data = spec.to_dict()
    data["topology"].pop("rtt", None)
    data["loss"].pop("rate", None)
    data["seed"] = None
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def lockstep_group(spec: ScenarioSpec) -> Optional[str]:
    """The lockstep batch ``spec`` may join; None when it must run scalar.

    Two cells may share a :func:`run_vector_batch` call exactly when both
    return the same non-None group.
    """
    return batch_key(spec) if vector_capability(spec) is None else None


# ------------------------------------------------------------ batch execution


def run_vector_batch(specs: Sequence[ScenarioSpec]) -> List[JsonDict]:
    """Run compatible specs as one lockstep batch; results in spec order.

    A single-spec batch takes the scalar path directly: the lockstep
    kernel's per-step dispatch overhead only amortizes across lanes.
    """
    if len(specs) == 1:
        return [run_cell_scalar(spec_to_cell_params(specs[0]))]
    return run_cells_vector([spec_to_cell_params(spec) for spec in specs])
