"""Discrete-event simulation engine.

This package is the substrate that replaces the ns-2 scheduler used by the
paper.  It provides:

* :class:`~repro.sim.engine.Simulator` -- a heap-based event loop with a
  monotonically non-decreasing clock.
* :class:`~repro.sim.process.Timer`, :class:`~repro.sim.process.FastTimer`
  and :class:`~repro.sim.process.PeriodicProcess` -- restartable timers built
  on the event loop, used for retransmission timers, feedback timers and
  traffic generators.  ``FastTimer`` (generation counters, no ``Event``
  allocation) drives every rate-based sender's pacing loop and the TFRC and
  TCP endpoints; the handle-based ``Timer`` is left with TEAR's report
  timer and multicast feedback suppression, and is ``FastTimer``'s fuzz
  reference.
* :mod:`~repro.sim.rng` -- named, independently seeded random streams so that
  experiments are reproducible and sub-systems do not perturb each other's
  random sequences.
* :mod:`~repro.sim.trace` -- lightweight structured tracing used by the
  analysis layer to reconstruct time series.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.process import FastTimer, PeriodicProcess, Timer
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "Event",
    "Simulator",
    "Timer",
    "FastTimer",
    "PeriodicProcess",
    "RngRegistry",
    "Tracer",
    "TraceRecord",
]
