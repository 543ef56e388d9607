"""Figure 18: prediction quality of the TFRC loss estimator.

Section 4.4 scores loss-rate predictors on real loss traces: for history
sizes {2, 4, 8, 16, 32} and for constant vs decreasing weights, the average
error in predicting the next loss interval's rate.  The paper's traces come
from Internet experiments; ours come from simulated paths with ON/OFF cross
traffic (the substitution preserves what matters: bursty, non-stationary
loss interval sequences).

The expected shape: errors are broadly flat across history sizes with a
shallow optimum around 8 intervals, and decreasing weights do no worse than
constant weights.

Each trace collection (one path, one seed) is a registered ``fig18_trace``
scenario cell, so multi-path trace gathering runs as a
:class:`~repro.scenarios.sweep.SweepRunner` sweep (``--parallel``/
``--cache``); the predictor scoring itself is cheap numpy post-processing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.predictor import predictor_errors
from repro.experiments.internet import PATHS, PathProfile
from repro.scenarios import ScenarioSpec, SweepRunner, register_scenario
from repro.scenarios.builders import run_tfrc_probe_path
from repro.scenarios.spec import JsonDict

PAPER_HISTORY_SIZES = (2, 4, 8, 16, 32)
#: the paths whose loss traces are scored.
TRACE_PATHS = ("ucl", "umass_linux", "nokia")


@dataclass
class Fig18Result:
    """Mean error / error std per (history size, weighting scheme)."""

    history_sizes: List[int]
    constant_weights: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    decreasing_weights: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    trace_lengths: List[int] = field(default_factory=list)


@register_scenario("fig18_trace")
def trace_scenario(spec: ScenarioSpec) -> JsonDict:
    """One loss-interval trace collection, as a sweep cell: one TFRC flow
    over a synthetic path, and its loss intervals.

    Spec layout::

        topology: the full :class:`PathProfile` as plain data

    The cell's ``seed`` is the spec seed (the runner sweeps an explicit
    ``seed`` axis zipped with the path axis via per-cell overrides).
    """
    profile = PathProfile.from_dict(dict(spec.topology))
    bed = run_tfrc_probe_path(profile, duration=spec.duration, seed=spec.seed)
    events = bed.tfrc_flows[0].receiver.detector.events
    intervals = [float(e.closed_interval) for e in events[1:]]  # skip the seed event
    return {"path": profile.name, "intervals": intervals}


def run(duration: float, seed: int = 0, **sweep: object) -> Fig18Result:
    """Score both weighting schemes on traces from several paths.

    Trace collection (the expensive part) is one sweep cell per path; the
    cells keep the historical per-path seeds (``seed + path_index``) via an
    explicit ``seed`` override zipped with the path axis.
    """
    base = ScenarioSpec(
        scenario="fig18_trace",
        duration=float(duration),
        seed=seed,
        topology=PATHS[TRACE_PATHS[0]].to_dict(),
    )
    cells = SweepRunner(
        base,
        {
            ("topology", "seed"): [
                (PATHS[name].to_dict(), seed + index)
                for index, name in enumerate(TRACE_PATHS)
            ]
        },
        **sweep,
    ).run().complete_cells()
    traces = []
    for cell in cells:
        trace = [float(v) for v in cell.result["intervals"]]
        if len(trace) > max(PAPER_HISTORY_SIZES) + 5:
            traces.append(trace)
    if not traces:
        raise RuntimeError("no usable loss traces were collected")
    result = Fig18Result(history_sizes=list(PAPER_HISTORY_SIZES))
    result.trace_lengths = [len(t) for t in traces]
    for history in PAPER_HISTORY_SIZES:
        for decreasing, bucket in (
            (False, result.constant_weights),
            (True, result.decreasing_weights),
        ):
            errors = []
            stds = []
            for trace in traces:
                mean_err, std_err = predictor_errors(trace, history, decreasing)
                errors.append(mean_err)
                stds.append(std_err)
            bucket[history] = (float(np.mean(errors)), float(np.mean(stds)))
    return result
