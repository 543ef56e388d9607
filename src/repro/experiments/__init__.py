"""Experiment harness: one module per figure of the paper's evaluation.

Every ``figNN_*`` module exposes ``run(...) -> <FigureResult dataclass>``
with keyword arguments controlling scale (duration, flow counts, seeds), so
benchmarks can run reduced versions of the full configurations (README,
*Figure → module map*).  Any further keyword of an entry point that builds a
sweep (``**sweep``) is an option of
:class:`~repro.scenarios.sweep.SweepRunner` -- ``parallel``, ``cache_dir``,
``progress``, ``executor``, ``queue_dir`` -- declared and validated there,
forwarded verbatim here.  ``repro.experiments.runner`` is the CLI
(``tfrc-experiment fig09``).
"""
