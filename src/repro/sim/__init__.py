"""Discrete-event simulation engine.

This package is the substrate that replaces the ns-2 scheduler used by the
paper.  It provides:

* :class:`~repro.sim.engine.Simulator` -- a heap-based event loop with a
  monotonically non-decreasing clock.
* :class:`~repro.sim.process.FastTimer` and
  :class:`~repro.sim.process.Timer` -- restartable timers built on the
  event loop.  ``FastTimer`` (generation counters, no ``Event``
  allocation) runs every retransmission, feedback and pacing timer and
  every periodic loop (RAP, TFRCP, the multicast round, TEAR's reports,
  CBR sources), each of which re-arms it from its own callback; the
  handle-based ``Timer`` is left with multicast feedback suppression,
  which must cancel, and is ``FastTimer``'s fuzz reference.
* :mod:`~repro.sim.rng` -- named, independently seeded random streams so that
  experiments are reproducible and sub-systems do not perturb each other's
  random sequences.
* :mod:`~repro.sim.trace` -- lightweight structured tracing used by the
  analysis layer to reconstruct time series.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.process import FastTimer, Timer
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "Event",
    "Simulator",
    "Timer",
    "FastTimer",
    "RngRegistry",
    "Tracer",
    "TraceRecord",
]
