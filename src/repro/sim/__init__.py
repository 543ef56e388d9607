"""Discrete-event simulation engine.

This package is the substrate that replaces the ns-2 scheduler used by the
paper.  It provides:

* :class:`~repro.sim.engine.Simulator` -- a heap-based event loop with a
  monotonically non-decreasing clock.
* :class:`~repro.sim.process.FastTimer` -- the one restartable timer
  (generation counters, no ``Event`` allocation).  It runs every
  retransmission and feedback timer and every periodic loop (TFRCP's
  interval update, CBR sources), each of which re-arms it from its own
  callback.
* :mod:`~repro.sim.rng` -- named, independently seeded random streams so that
  experiments are reproducible and sub-systems do not perturb each other's
  random sequences.
* :mod:`~repro.sim.trace` -- lightweight structured tracing used by the
  analysis layer to reconstruct time series.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.process import FastTimer
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "Event",
    "Simulator",
    "FastTimer",
    "RngRegistry",
    "Tracer",
    "TraceRecord",
]
